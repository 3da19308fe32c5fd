"""Linear-Feedback Shift Registers.

The BBN Cascade variant (paper section 5) defines its parity subsets as
"pseudo-random bit strings, from a Linear-Feedback Shift Register (LFSR)" and
identifies each subset on the wire "by a 32-bit seed for the LFSR".  Both
sides expand the same seed to the same subset-selection mask, so only the seed
(not the subset itself) has to cross the public channel.

This module implements a Galois-configuration LFSR over GF(2) plus the helpers
that expand 32-bit seeds into subset masks over ``n`` key positions.

:class:`LFSR` is the scalar definition.  The batch helpers read the same
streams out of a table instead of stepping registers: the Galois step is
linear over GF(2), so the output stream of seed ``s`` is the XOR of the
streams of ``s``'s four bytes.  One process-wide table holds the stream of
every byte value at every byte position; it grows to the longest key ever
expanded — 1 KiB per stream byte, i.e. 256 KiB for 2048-bit keys at density
one half (eight positions per stream byte) and ``n`` KiB for an ``n``-bit key
at a thresholded density (one stream byte per position) — and a shorter key
reads a prefix of it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.util.bits import BitString

# Taps for a maximal-length 32-bit Galois LFSR (polynomial
# x^32 + x^22 + x^2 + x + 1), the classic choice for 32-bit registers.
DEFAULT_TAPS_32 = 0x80200003
DEFAULT_WIDTH = 32

# Byte-stepping tables, keyed by (taps, width) and shared by every register
# with the same polynomial.  The Galois step is linear over GF(2), so eight
# steps from state s decompose as the XOR of eight-step images of s's bytes:
# tables[k][b] = (state after 8 steps, 8 output bits MSB-first) for the state
# contribution b << 8k.
_BYTE_TABLES: Dict[Tuple[int, int], List[List[Tuple[int, int]]]] = {}


def _byte_tables(taps: int, width: int) -> List[List[Tuple[int, int]]]:
    key = (taps, width)
    tables = _BYTE_TABLES.get(key)
    if tables is None:
        feedback = (taps >> 1) | (1 << (width - 1))
        mask = (1 << width) - 1

        def step8(state: int) -> Tuple[int, int]:
            out = 0
            for k in range(8):
                bit = state & 1
                state >>= 1
                if bit:
                    state ^= feedback
                out |= bit << (7 - k)
            return state & mask, out

        n_bytes = (width + 7) // 8
        tables = [
            [step8((value << (8 * position)) & mask) for value in range(256)]
            for position in range(n_bytes)
        ]
        _BYTE_TABLES[key] = tables
    return tables


class LFSR:
    """A Galois LFSR producing a deterministic pseudo-random bit stream."""

    def __init__(self, seed: int, taps: int = DEFAULT_TAPS_32, width: int = DEFAULT_WIDTH):
        if width <= 0:
            raise ValueError("register width must be positive")
        mask = (1 << width) - 1
        if taps & ~mask:
            raise ValueError("tap mask wider than the register")
        self.width = width
        self.taps = taps
        self.mask = mask
        # An all-zero state would be a fixed point; map it to the all-ones
        # state the way hardware implementations commonly do.
        self.state = (seed & mask) or mask

    def step(self) -> int:
        """Advance one step and return the output bit."""
        output = self.state & 1
        self.state >>= 1
        if output:
            self.state ^= self.taps >> 1
            self.state |= 1 << (self.width - 1)
        self.state &= self.mask
        return output

    def bits(self, count: int) -> BitString:
        """Produce the next ``count`` output bits.

        Produces the exact per-:meth:`step` stream, but eight steps at a time
        through the shared byte tables (the step map is linear over GF(2)),
        with a per-bit tail for the last ``count % 8`` bits.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        value = 0
        whole_bytes, tail = divmod(count, 8)
        if whole_bytes:
            tables = _byte_tables(self.taps, self.width)
            state = self.state
            # Accumulate the stream bytes in a bytearray and pack once at the
            # end: one O(n) int.from_bytes instead of n/8 shifts of a growing
            # integer (which would be quadratic in the subset length).
            out_bytes = bytearray(whole_bytes)
            for j in range(whole_bytes):
                new_state = 0
                out = 0
                for position, table in enumerate(tables):
                    state_part, out_part = table[(state >> (8 * position)) & 0xFF]
                    new_state ^= state_part
                    out ^= out_part
                state = new_state
                out_bytes[j] = out
            self.state = state
            value = int.from_bytes(out_bytes, "big")
        for _ in range(tail):
            value = (value << 1) | self.step()
        return BitString.from_int(value, count)

class _StreamTable:
    """Every seed byte's output stream under the default polynomial.

    ``table[k, b]`` is the stream (eight output bits per byte, MSB first —
    the :meth:`LFSR.bits` order) of the register state ``b << 8k``; the
    stream of a seed is the XOR of its bytes' rows.  The table is built from
    the 32 unit-state streams by XOR doubling and extended on demand:
    the unit registers' states are kept, so growing continues their streams
    and never recomputes a prefix.
    """

    def __init__(self):
        # Replaced together, never mutated: a reader racing a grow sees a
        # complete (shorter) table, not a half-extended one.
        self._grown = (
            np.zeros((DEFAULT_WIDTH // 8, 256, 0), dtype=np.uint8),
            [1 << bit for bit in range(DEFAULT_WIDTH)],
        )

    def _grow(self, n_bytes: int) -> np.ndarray:
        table, states = self._grown
        extra = n_bytes - table.shape[2]
        if extra <= 0:
            return table
        grown = np.zeros(table.shape[:2] + (extra,), dtype=np.uint8)
        new_states = []
        for bit, state in enumerate(states):
            register = LFSR(state)
            unit = np.frombuffer(register.bits(8 * extra).to_bytes(), dtype=np.uint8)
            new_states.append(register.state)
            rows = grown[bit // 8]
            low = 1 << (bit % 8)
            rows[low : 2 * low] = rows[:low] ^ unit
        table = np.concatenate([table, grown], axis=2)
        self._grown = (table, new_states)
        return table

    def streams(self, seeds: Sequence[int], n_bytes: int) -> np.ndarray:
        """The first ``n_bytes`` stream bytes of each seed, one row per seed."""
        table = self._grow(n_bytes)
        # LFSR.__init__ owns the seed -> state rule (all-zero -> all-ones).
        states = [LFSR(seed).state for seed in seeds]
        rows = np.zeros((len(states), n_bytes), dtype=np.uint8)
        for position in range(table.shape[0]):
            index = [(state >> (8 * position)) & 0xFF for state in states]
            rows ^= table[position, index, :n_bytes]
        return rows


_SUBSET_STREAMS = _StreamTable()


def lfsr_subset_rows(
    seeds: Sequence[int], length: int, density: float = 0.5
) -> np.ndarray:
    """Expand many seeds into subset masks at once (Cascade's per-round batch).

    Returns a ``(len(seeds), length)`` bool matrix: entry ``[i, j]`` is set
    when key position ``j`` belongs to seed ``i``'s subset — row ``i`` is
    the seed's own :meth:`LFSR.bits` expansion bit for bit (the
    differential tests pin that), read out of the shared stream table.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if density == 0.5:
        streams = _SUBSET_STREAMS.streams(seeds, (length + 7) // 8)
        return np.unpackbits(streams, axis=1, count=length).view(bool)
    # Thresholded densities consume one stream byte per key position.
    threshold = int(round(density * 256))
    return _SUBSET_STREAMS.streams(seeds, length) < threshold
