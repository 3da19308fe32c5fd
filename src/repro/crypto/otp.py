"""The Vernam one-time pad, backed by an explicit pad pool.

The paper's second IPsec extension "use[s] a sequence of QKD bits as a
one-time pad or Vernam cipher for the message traffic".  Because pad bits may
never be reused, the central engineering object is not the XOR itself but the
*pool*: a strictly-consumed reservoir of pad material that both ends must
draw from in the same order.  :class:`OneTimePad` models that pool, tracks an
offset so Alice's encryption and Bob's decryption stay aligned, and raises
:class:`PadExhaustedError` when traffic outruns key delivery — the
"race between the rate at which keying material is put into place and the
rate at which it is consumed" the paper describes in section 2.
"""

from __future__ import annotations


class PadExhaustedError(Exception):
    """Raised when more pad material is requested than the pool contains."""


class OneTimePad:
    """A strictly-consumed pool of one-time-pad bytes."""

    def __init__(self, initial_pad: bytes = b""):
        self._pool = bytearray(initial_pad)

    # ------------------------------------------------------------------ #
    # Pool management
    # ------------------------------------------------------------------ #

    @property
    def available_bytes(self) -> int:
        """Bytes of pad material currently available for encryption."""
        return len(self._pool)

    def add_key_material(self, material: bytes) -> None:
        """Append freshly distilled QKD bytes to the pool."""
        self._pool.extend(material)

    def _take(self, count: int) -> bytes:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > len(self._pool):
            raise PadExhaustedError(
                f"one-time pad exhausted: need {count} bytes, have {len(self._pool)}"
            )
        taken = bytes(self._pool[:count])
        del self._pool[:count]
        return taken

    # ------------------------------------------------------------------ #
    # Encryption / decryption
    # ------------------------------------------------------------------ #

    def encrypt(self, plaintext: bytes) -> bytes:
        """XOR the plaintext with the next pad bytes (consuming them).

        The XOR runs whole-word over packed integers rather than per byte.
        """
        pad = self._take(len(plaintext))
        if not plaintext:
            return b""
        return (
            int.from_bytes(plaintext, "big") ^ int.from_bytes(pad, "big")
        ).to_bytes(len(plaintext), "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        """XOR the ciphertext with the next pad bytes (consuming them).

        Encryption and decryption are the same operation; both ends simply
        have to consume the shared pad in the same order, which is exactly
        how the VPN gateways use this class.
        """
        return self.encrypt(ciphertext)

    def peek(self, count: int) -> bytes:
        """Return the next ``count`` pad bytes without consuming them (the far
        end of a relay hop decrypts with them; see ``TrustedRelayNetwork.cross_hop``)."""
        if count > len(self._pool):
            raise PadExhaustedError("not enough pad material to peek")
        return bytes(self._pool[:count])

    def __repr__(self) -> str:
        return f"OneTimePad(available={self.available_bytes})"
