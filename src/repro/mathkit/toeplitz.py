"""Toeplitz-matrix universal hashing.

Toeplitz hashing is the standard alternative construction of a 2-universal
hash family used for both privacy amplification and Wegman-Carter style
authentication.  An ``m x n`` Toeplitz matrix is defined by its first row and
first column (``m + n - 1`` random bits); multiplying the key vector by the
matrix over GF(2) compresses ``n`` bits to ``m`` bits.

Bit-order convention
--------------------

The matrix entry at (row ``r``, column ``c``) is::

    M[r][c] = diagonal_bits[r - c + input_bits - 1]

for ``r`` in ``[0, output_bits)`` and ``c`` in ``[0, input_bits)``.  In words:

* **Row 0** is ``diagonal_bits[0 : input_bits]`` *reversed* — entry (0, 0) is
  ``diagonal_bits[input_bits - 1]``, and the column index increases toward the
  *start* of the defining sequence (entry (0, n-1) is ``diagonal_bits[0]``).
* Moving **down** one row shifts the window one position toward the *end* of
  the defining sequence: row ``r`` is ``diagonal_bits[r : r + input_bits]``
  reversed, so entry (r, 0) is ``diagonal_bits[r + input_bits - 1]``.
* Equivalently, the first row and first column read
  ``diagonal_bits[n-1], diagonal_bits[n-2], ... diagonal_bits[0]`` (row 0,
  left to right) and ``diagonal_bits[n-1], diagonal_bits[n], ...,
  diagonal_bits[m+n-2]`` (column 0, top to bottom).

``tests/test_lfsr_toeplitz_entropy.py`` pins this convention explicitly so the
packed implementation below cannot silently flip it.

Packed implementation
---------------------

With the convention above, output bit ``r`` is the coefficient of
``x^(m + n - 2 - r)`` in the GF(2) polynomial product ``D(x) * K(x)``, where
``D`` is ``diagonal_bits`` and ``K`` the key, both read most-significant-bit
first (the :meth:`~repro.util.bits.BitString.to_int` packing).  The whole hash
is therefore one carry-less multiply followed by a shift-and-mask::

    hash(key) = (clmul(D, K) >> (input_bits - 1)) & ((1 << output_bits) - 1)

The multiply is evaluated with a 256-entry window table (precomputed once per
hash instance): the key is consumed a byte at a time, so a call costs
``O(n/8)`` big-int operations instead of the ``O(m * n)`` per-bit row masks
the original implementation walked.

The Wegman-Carter chain (:meth:`ToeplitzHash.chained_hash_aligned`) uses the
same linearity one level up: a table of the hash of every byte value at every
byte position turns the hash of a block into one XOR-gather per byte position
over *all* blocks of a transcript at once.

The DARPA network's own privacy amplification uses the GF(2^n) linear hash of
:mod:`repro.mathkit.gf2n`; the Toeplitz construction is provided as the second
member of the family so the benchmark suite can compare the two (and because
the authentication layer uses it to build short tags).
"""

from __future__ import annotations

import numpy as np

from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


class ToeplitzHash:
    """A hash function drawn from the Toeplitz 2-universal family."""

    def __init__(self, diagonal_bits: BitString, input_bits: int, output_bits: int):
        expected = input_bits + output_bits - 1
        if input_bits <= 0 or output_bits <= 0:
            raise ValueError("input and output lengths must be positive")
        if len(diagonal_bits) != expected:
            raise ValueError(
                f"a {output_bits}x{input_bits} Toeplitz matrix needs {expected} "
                f"defining bits, got {len(diagonal_bits)}"
            )
        self.input_bits = input_bits
        self.output_bits = output_bits
        self.diagonal_bits = diagonal_bits
        self._out_mask = (1 << output_bits) - 1
        self._window_table = None
        self._position_table = None

    @property
    def _window(self):
        """8-bit window table for the carry-less multiply: ``_window[w]`` is
        the GF(2) polynomial product diagonal * w for every byte value w.

        Built on first hash, not at construction: the table is a pure
        function of the diagonal, and a privacy-amplification or
        authentication hash is often constructed long before (or without
        ever) being evaluated — per-epoch link fleets construct hundreds.
        """
        table = self._window_table
        if table is None:
            diagonal = self.diagonal_bits.to_int()
            table = [0] * 256
            for w in range(1, 256):
                table[w] = (table[w >> 1] << 1) ^ (diagonal if w & 1 else 0)
            self._window_table = table
        return table

    # ------------------------------------------------------------------ #

    @classmethod
    def random(
        cls, input_bits: int, output_bits: int, rng: DeterministicRNG
    ) -> "ToeplitzHash":
        """Draw a random member of the family."""
        diagonal = BitString.random(input_bits + output_bits - 1, rng)
        return cls(diagonal, input_bits, output_bits)

    @classmethod
    def from_seed_bits(
        cls, seed_bits: BitString, input_bits: int, output_bits: int
    ) -> "ToeplitzHash":
        """Build the hash from explicit seed bits (e.g. shared secret key bits)."""
        return cls(seed_bits, input_bits, output_bits)

    # ------------------------------------------------------------------ #

    def __call__(self, key: BitString) -> BitString:
        return self.hash(key)

    def hash(self, key: BitString) -> BitString:
        """Compress the key from ``input_bits`` to ``output_bits`` bits."""
        if len(key) != self.input_bits:
            raise ValueError(
                f"expected a {self.input_bits}-bit input, got {len(key)} bits"
            )
        return BitString.from_int(self.hash_value(key.to_int()), self.output_bits)

    def hash_value(self, key_value: int) -> int:
        """Hash a key given as its packed integer (``BitString.to_int`` order).

        Fast path for callers that already hold packed words (:meth:`hash`
        runs on it); returns the packed ``output_bits``-bit tag value.
        """
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
        return (product >> (pad + n - 1)) & self._out_mask

    @property
    def _position(self) -> np.ndarray:
        """Per-byte-position table: row ``256 * j + b`` is the hash of the
        input whose ``j``-th byte is ``b`` and whose other bytes are zero, as
        big-endian bytes right-aligned in whole 64-bit words (one column per
        word), so XOR runs on words and the bytes stay addressable.

        The hash is linear, so the hash of any input is the XOR of one row
        per input byte.  Column ``c`` of the matrix is the ``output_bits``
        window of the diagonal starting at ``input_bits - 1 - c``; a byte's
        256 rows are the XOR-doubling closure of its eight columns.  Built
        on first chained hash, like :attr:`_window`.
        """
        table = self._position_table
        if table is None:
            out_bytes = self.output_bits // 8
            diagonal = np.unpackbits(
                np.frombuffer(self.diagonal_bits.to_bytes(), dtype=np.uint8),
                count=len(self.diagonal_bits),
            )
            windows = np.lib.stride_tricks.sliding_window_view(diagonal, self.output_bits)
            columns = np.packbits(windows[::-1], axis=1).reshape(-1, 8, out_bytes)
            rows = np.zeros((len(columns), 256, -(-out_bytes // 8) * 8), dtype=np.uint8)
            digests = rows[:, :, rows.shape[2] - out_bytes :]
            for bit in range(8):
                low = 1 << bit
                # Value bit ``bit`` of a byte is its column 7 - bit (MSB first).
                digests[:, low : 2 * low] = digests[:, :low] ^ columns[:, None, 7 - bit]
            table = self._position_table = rows.view(np.uint64).reshape(len(columns) * 256, -1)
        return table

    @staticmethod
    def _apply(table: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """XOR over ``j`` of table row ``256 * j + vectors[i, j]``, for every ``i``."""
        # Positions outermost, so the XOR reduction runs along long rows.
        rows = vectors.T + 256 * np.arange(vectors.shape[1])[:, None]
        return np.stack(
            [np.bitwise_xor.reduce(words.take(rows), axis=0) for words in table.T],
            axis=1,
        )

    def chained_hash_aligned(self, data: bytes, payload_bytes: int, init: int = 0) -> int:
        """Run the whole Wegman-Carter chaining loop over byte-aligned blocks.

        Computes ``digest = T(digest || chunk || zero-pad)`` for consecutive
        ``payload_bytes``-sized chunks of ``data``, starting from ``init``,
        and returns the final packed digest value.  Equivalent to calling
        :meth:`hash_value` on ``(digest << chunk_bits) | chunk`` per chunk,
        but evaluated from the position tables: ``T(digest || chunk)`` is
        ``A·digest ^ C·chunk``, so ``C·chunk`` is gathered for every chunk at
        once, and the remaining recurrence ``d' = A·d ^ c`` is folded
        pairwise — ``A^2k·left ^ right`` halves the sequence per level, with
        the table of ``A^2k`` obtained by applying ``A^k``'s to itself.

        Requires ``input_bits``, ``output_bits`` and ``payload_bytes * 8`` to
        tile exactly: ``input_bits == output_bits + 8 * payload_bytes`` with
        both bit counts byte-aligned, which the Wegman-Carter authenticator
        requires of every tag and block size.
        """
        if self.input_bits % 8 or self.output_bits % 8:
            raise ValueError("chained_hash_aligned requires byte-aligned geometry")
        if self.output_bits + 8 * payload_bytes != self.input_bits:
            raise ValueError(
                "payload bytes must fill input_bits minus the chained digest"
            )
        out_bytes = self.output_bits // 8
        table = self._position
        words = table.shape[1]

        def digest_bytes(values: np.ndarray) -> np.ndarray:
            return values.view(np.uint8)[:, 8 * words - out_bytes :]

        chunks = -(-len(data) // payload_bytes)
        padded = np.zeros(chunks * payload_bytes, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        # Front-padded with zero digests (which contribute nothing) to a
        # power-of-two length: the initial digest, then every chunk's C·chunk.
        values = np.zeros((1 << chunks.bit_length(), words), dtype=np.uint64)
        digest_bytes(values)[-chunks - 1] = np.frombuffer(
            init.to_bytes(out_bytes, "big"), dtype=np.uint8
        )
        values[len(values) - chunks :] = self._apply(
            table[256 * out_bytes :], padded.reshape(chunks, payload_bytes)
        )
        power = table[: 256 * out_bytes]  # the table of A, then A^2, A^4, ...
        while len(values) > 1:
            values = self._apply(power, digest_bytes(values[0::2])) ^ values[1::2]
            power = self._apply(power, digest_bytes(power))
        return int.from_bytes(values.tobytes(), "big")

    def __repr__(self) -> str:
        return f"ToeplitzHash({self.input_bits} -> {self.output_bits} bits)"
