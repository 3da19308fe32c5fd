"""The Toeplitz hash one input at a time — the reference the Wegman-Carter
chain is held to.

:meth:`repro.mathkit.toeplitz.ToeplitzHash.chained_hash_aligned` hashes every
block of a transcript at once from per-byte-position tables.  This subclass
adds the plain definition beside it: output bit ``r`` is the coefficient of
``x^(m + n - 2 - r)`` in the GF(2) product ``D(x) * K(x)`` of the diagonal
and the key (both most-significant bit first), so one hash is a carry-less
multiply followed by a shift-and-mask::

    hash(key) = (clmul(D, K) >> (input_bits - 1)) & ((1 << output_bits) - 1)

The multiply runs over an 8-bit window table (the product of the diagonal
with every byte value), a byte of key at a time.  The row-mask and matrix
forms in :mod:`tests.oracles.mathkit` and ``tests/test_bits_differential.py``
check this in turn.
"""

from __future__ import annotations

from repro.mathkit.toeplitz import ToeplitzHash
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


class WindowToeplitzHash(ToeplitzHash):
    """A :class:`ToeplitzHash` that also hashes one input at a time."""

    @classmethod
    def random(
        cls, input_bits: int, output_bits: int, rng: DeterministicRNG
    ) -> "WindowToeplitzHash":
        """Draw a random member of the family."""
        diagonal = BitString.random(input_bits + output_bits - 1, rng)
        return cls(diagonal, input_bits, output_bits)

    @property
    def _window(self):
        """``_window[w]`` is the GF(2) product diagonal * w for every byte w."""
        table = getattr(self, "_window_table", None)
        if table is None:
            diagonal = self.diagonal_bits.to_int()
            table = [0] * 256
            for w in range(1, 256):
                table[w] = (table[w >> 1] << 1) ^ (diagonal if w & 1 else 0)
            self._window_table = table
        return table

    def __call__(self, key: BitString) -> BitString:
        return self.hash(key)

    def hash(self, key: BitString) -> BitString:
        """Compress the key from ``input_bits`` to ``output_bits`` bits."""
        if len(key) != self.input_bits:
            raise ValueError(f"expected a {self.input_bits}-bit input, got {len(key)} bits")
        return BitString.from_int(self.hash_value(key.to_int()), self.output_bits)

    def hash_value(self, key_value: int) -> int:
        """Hash a key given as its packed integer (``BitString.to_int`` order)."""
        n = self.input_bits
        # Left-align the key to a byte boundary; clmul(D, K << p) = P << p,
        # so the padding only moves the extraction window.
        n_bytes = (n + 7) // 8
        pad = n_bytes * 8 - n
        data = (key_value << pad).to_bytes(n_bytes, "big")
        table = self._window
        product = 0
        for byte in data:
            product = (product << 8) ^ table[byte]
        return (product >> (pad + n - 1)) & ((1 << self.output_bits) - 1)
