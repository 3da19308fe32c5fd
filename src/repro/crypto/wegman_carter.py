"""Wegman-Carter universal-hash authentication.

The original BB84 paper "sketched a solution ... based on universal families
of hash functions, introduced by Wegman and Carter", and the DARPA network's
authentication stage follows it (paper §5): Alice and Bob share a small pool
of secret key bits; to authenticate a message they use some of those bits to
select a hash function from a universal family and transmit the resulting
tag; because the family is universal, a forger who does not know the secret
selection bits succeeds with probability at most ``2^-tag_bits`` even with
unlimited computing power.  The selection bits are never reused — each
authenticated message consumes key — and the pool is replenished from freshly
distilled QKD bits.

The construction used here is the standard "Toeplitz hash then one-time-pad
the tag" scheme: ``tag = T_s(message) XOR p`` where the Toeplitz seed ``s``
may be long-lived but the pad ``p`` (``tag_bits`` bits) must be fresh per
message.  Consuming a fresh pad per message is what gives the
information-theoretic guarantee; the seed is also drawn from the shared pool
at construction time.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.mathkit.toeplitz import ToeplitzHash
from repro.util.bits import BitString

if TYPE_CHECKING:
    from repro.core.keypool import KeyPool

# Memo of transcript digests keyed by (hash seed, geometry, payload sha256).
# The universal-hash digest is a pure function of those inputs, and the
# simulation computes it redundantly: one engine drives both endpoints, whose
# authenticators share identical seeds, so a block's tag / verify / tag-back /
# verify-back all hash the same transcript.  A real deployment hashes once
# per side; the memo removes the simulation artifact without touching the
# construction.  Keys hold a fixed-size fingerprint (not the payload), so the
# memo stays small; it is bounded LRU regardless.
_DIGEST_MEMO: "OrderedDict[tuple, int]" = OrderedDict()
_DIGEST_MEMO_SIZE = 64


class AuthenticationError(Exception):
    """Raised when a message fails tag verification (possible Eve tampering)."""


class WegmanCarterAuthenticator:
    """Tags and verifies protocol messages with Wegman-Carter authentication.

    Two authenticators constructed from pools holding identical bits (one at
    Alice, one at Bob) will agree on every tag as long as they tag/verify the
    same messages in the same order — mirroring how the real system keeps the
    two ends' pools in lock step.
    """

    #: Default tag length.  32 bits gives a 2^-32 forgery probability per
    #: message, comfortably below the confidence targets in the paper.
    DEFAULT_TAG_BITS = 32

    #: Messages are hashed in blocks of this many bits; longer messages are
    #: chained block by block so one Toeplitz seed of bounded size suffices.
    BLOCK_BITS = 256

    def __init__(
        self,
        pool: "KeyPool",
        tag_bits: int = DEFAULT_TAG_BITS,
        block_bits: int = BLOCK_BITS,
    ):
        if tag_bits <= 0:
            raise ValueError("tag length must be positive")
        if block_bits <= tag_bits:
            raise ValueError("block size must exceed the tag length")
        if tag_bits % 8 or block_bits % 8:
            raise ValueError(
                "tag and block sizes must be whole bytes, got "
                f"tag_bits={tag_bits!r}, block_bits={block_bits!r}"
            )
        self.pool = pool
        self.tag_bits = tag_bits
        self.block_bits = block_bits
        # The hash seed is drawn once from the shared pool; per-message pads
        # are drawn for every tag.
        seed = pool.draw_bits(block_bits + tag_bits - 1)
        self._hash = ToeplitzHash.from_seed_bits(seed, block_bits, tag_bits)

    # ------------------------------------------------------------------ #

    def _hash_message(self, message: bytes) -> BitString:
        """Hash a message, memoizing by content fingerprint (see module note)."""
        memo_key = (
            self._hash.diagonal_bits.to_int(),
            self.block_bits,
            self.tag_bits,
            hashlib.sha256(message).digest(),
        )
        cached = _DIGEST_MEMO.get(memo_key)
        if cached is not None:
            _DIGEST_MEMO.move_to_end(memo_key)
            return BitString.from_int(cached, self.tag_bits)
        digest = self._hash_message_uncached(message)
        _DIGEST_MEMO[memo_key] = digest.to_int()
        if len(_DIGEST_MEMO) > _DIGEST_MEMO_SIZE:
            _DIGEST_MEMO.popitem(last=False)
        return digest

    def _hash_message_uncached(self, message: bytes) -> BitString:
        """Hash an arbitrary-length message by chaining fixed-size blocks.

        Each block hashed is ``digest || chunk`` zero-padded to ``block_bits``;
        the message bits are consumed ``block_bits - tag_bits`` at a time with
        a 32-bit length marker appended (so messages that differ only by
        trailing zero-padding hash differently).  Tag and block are whole
        bytes, so the entire chain runs on packed words inside
        :meth:`ToeplitzHash.chained_hash_aligned`, which hashes every chunk of
        the transcript at once from per-byte-position tables.
        """
        payload_bytes = (self.block_bits - self.tag_bits) // 8
        data = message + (len(message) % (1 << 32)).to_bytes(4, "big")
        digest = self._hash.chained_hash_aligned(data, payload_bytes)
        return BitString.from_int(digest, self.tag_bits)

    def tag(self, message: bytes) -> BitString:
        """Produce an authentication tag, consuming ``tag_bits`` of fresh pad."""
        pad = self.pool.draw_bits(self.tag_bits)
        return self._hash_message(message) ^ pad

    def verify(self, message: bytes, tag: BitString) -> None:
        """Verify a tag, consuming the same pad bits the peer's ``tag`` call used.

        Raises :class:`AuthenticationError` on mismatch.
        """
        pad = self.pool.draw_bits(self.tag_bits)
        expected = self._hash_message(message) ^ pad
        if expected != tag:
            raise AuthenticationError("authentication tag mismatch (possible man-in-the-middle)")

    def __repr__(self) -> str:
        return (
            f"WegmanCarterAuthenticator(tag_bits={self.tag_bits}, "
            f"pool_available={self.pool.available_bits})"
        )
