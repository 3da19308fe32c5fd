"""Differential tests: packed BitString vs. the retained tuple reference.

The packed machine-word ``BitString`` must be observationally identical to
:class:`tests.oracles.bits_reference.ReferenceBitString` (the original per-bit
implementation, kept as an oracle).  These tests drive both through every
public operation on randomized inputs, and additionally pin the packed
Toeplitz hash against the original row-mask algorithm and the byte-stepped
LFSR against pure per-bit stepping.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mathkit.lfsr import LFSR
from repro.mathkit.toeplitz import ToeplitzHash
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.oracles.bits_reference import ReferenceBitString
from tests.oracles.mathkit import gf2_dot, toeplitz_matrix_rows

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=192)


def pair(bits):
    """The same bit pattern in both implementations."""
    return BitString(bits), ReferenceBitString(bits)


def agree(packed, reference):
    """Assert a packed result equals a reference result, whatever the type."""
    if isinstance(reference, ReferenceBitString):
        assert isinstance(packed, BitString)
        assert packed.to_list() == reference.to_list()
    else:
        assert packed == reference


class TestConstructorEquivalence:
    @given(bit_lists)
    def test_roundtrip_representations(self, bits):
        p, r = pair(bits)
        assert p.to_list() == r.to_list()
        assert str(p) == str(r)
        assert repr(p) == repr(r)
        assert p.to_int() == r.to_int()
        assert p.to_bytes() == r.to_bytes()
        assert list(p) == list(r)
        assert len(p) == len(r)
        assert bool(p) == bool(r)

    @given(st.integers(min_value=0, max_value=2**130 - 1))
    def test_from_int(self, value):
        length = max(value.bit_length(), 1) + 3
        agree(BitString.from_int(value, length), ReferenceBitString.from_int(value, length))

    @given(st.binary(max_size=48))
    def test_from_bytes(self, data):
        agree(BitString.from_bytes(data), ReferenceBitString.from_bytes(data))

    @given(st.integers(min_value=0, max_value=160), st.integers())
    def test_random_same_draw(self, n, seed):
        agree(
            BitString.random(n, DeterministicRNG(seed)),
            ReferenceBitString.random(n, DeterministicRNG(seed)),
        )

    @given(st.integers(min_value=0, max_value=160))
    def test_zeros_ones(self, n):
        agree(BitString.zeros(n), ReferenceBitString.zeros(n))
        agree(BitString.ones(n), ReferenceBitString.ones(n))

    def test_invalid_inputs_raise_identically(self):
        for build in (lambda cls: cls([0, 2]), lambda cls: cls.from_int(-1, 4),
                      lambda cls: cls.from_int(16, 4), lambda cls: cls.from_int(1, 0),
                      lambda cls: cls.from_int(5, -1),
                      lambda cls: cls.zeros(-1), lambda cls: cls.ones(-2)):
            with pytest.raises(ValueError):
                build(BitString)
            with pytest.raises(ValueError):
                build(ReferenceBitString)


class TestOperationEquivalence:
    @given(bit_lists, bit_lists)
    def test_binary_ops(self, a, b):
        n = min(len(a), len(b))
        pa, ra = pair(a[:n])
        pb, rb = pair(b[:n])
        agree(pa ^ pb, ra ^ rb)
        agree(pa & pb, ra & rb)
        agree(~pa, ~ra)
        agree(pa + pb, ra + rb)
        agree(pa.concat(pb, pa), ra.concat(rb, ra))
        assert pa.hamming_distance(pb) == ra.hamming_distance(rb)
        assert pa.error_rate(pb) == ra.error_rate(rb)
        assert (pa == pb) == (ra == rb)

    @given(bit_lists)
    def test_unary_statistics(self, bits):
        p, r = pair(bits)
        assert p.parity() == r.parity()
        assert p.balance() == r.balance()
        assert p.runs() == r.runs()

    @given(bit_lists, st.integers(min_value=-200, max_value=200))
    def test_indexing(self, bits, index):
        p, r = pair(bits)
        try:
            expected = r[index]
        except IndexError:
            with pytest.raises(IndexError):
                p[index]
        else:
            assert p[index] == expected

    @given(
        bit_lists,
        st.integers(min_value=-8, max_value=200),
        st.integers(min_value=-8, max_value=200),
        st.sampled_from([None, 1, 2, 3, -1, -2]),
    )
    def test_slicing(self, bits, start, stop, step):
        p, r = pair(bits)
        agree(p[start:stop:step], r[start:stop:step])

    @given(bit_lists, st.data())
    def test_subset(self, bits, data):
        p, r = pair(bits)
        if bits:
            indices = data.draw(
                st.lists(st.integers(min_value=0, max_value=len(bits) - 1), max_size=32)
            )
            agree(p.subset(indices), r.subset(indices))

    @given(bit_lists, st.integers(min_value=1, max_value=48))
    def test_chunks(self, bits, size):
        p, r = pair(bits)
        packed_chunks = p.chunks(size)
        reference_chunks = r.chunks(size)
        assert len(packed_chunks) == len(reference_chunks)
        for pc, rc in zip(packed_chunks, reference_chunks):
            agree(pc, rc)

    @given(bit_lists)
    def test_hash_consistency_within_implementation(self, bits):
        p1, _ = pair(bits)
        p2, _ = pair(bits)
        assert hash(p1) == hash(p2)
        assert p1 == p2


class TestToeplitzDifferential:
    """The packed carry-less-multiply hash vs. the original row-mask multiply."""

    @staticmethod
    def row_mask_hash(diagonal, input_bits, output_bits, key):
        """The pre-refactor algorithm, verbatim: per-row masks, per-bit packing."""
        row_masks = []
        for row in range(output_bits):
            mask = 0
            for column in range(input_bits):
                if diagonal[row - column + input_bits - 1]:
                    mask |= 1 << column
            row_masks.append(mask)
        packed = 0
        for column, bit in enumerate(key):
            if bit:
                packed |= 1 << column
        return BitString(bin(mask & packed).count("1") & 1 for mask in row_masks)

    @given(
        st.integers(min_value=1, max_value=72),
        st.integers(min_value=1, max_value=40),
        st.integers(),
    )
    @settings(max_examples=60)
    def test_hash_matches_row_mask_algorithm(self, input_bits, output_bits, seed):
        rng = DeterministicRNG(seed)
        diagonal = BitString.random(input_bits + output_bits - 1, rng)
        key = BitString.random(input_bits, rng)
        hasher = ToeplitzHash(diagonal, input_bits, output_bits)
        assert hasher.hash(key) == self.row_mask_hash(
            diagonal, input_bits, output_bits, key
        )

    def test_hash_matches_matrix_rows(self):
        rng = DeterministicRNG(99)
        hasher = ToeplitzHash.random(48, 16, rng)
        key = BitString.random(48, rng)
        expected = BitString(gf2_dot(row, key) for row in toeplitz_matrix_rows(hasher))
        assert hasher.hash(key) == expected


class TestLFSRDifferential:
    """Byte-table batched bits() vs. pure per-bit stepping."""

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=150),
        st.integers(),
    )
    @settings(max_examples=60)
    def test_bits_equals_stepping(self, width, seed, count, taps_seed):
        taps = random.Random(taps_seed).getrandbits(width) or 1
        fast = LFSR(seed, taps, width)
        slow = LFSR(seed, taps, width)
        assert fast.bits(count) == BitString(slow.step() for _ in range(count))
        assert fast.state == slow.state
