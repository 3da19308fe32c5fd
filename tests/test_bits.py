"""Tests for the BitString substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=256)


class TestConstruction:
    def test_empty(self):
        assert len(BitString()) == 0
        assert str(BitString()) == ""
        assert not BitString()

    def test_from_iterable(self):
        bits = BitString([1, 0, 1, 1])
        assert len(bits) == 4
        assert str(bits) == "1011"

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitString([0, 2, 1])

    def test_zeros_and_ones(self):
        assert str(BitString.zeros(4)) == "0000"
        assert str(BitString.ones(3)) == "111"
        assert BitString.zeros(0) == BitString()

    def test_zeros_negative_length_rejected(self):
        with pytest.raises(ValueError):
            BitString.zeros(-1)

    def test_from_int(self):
        assert str(BitString.from_int(5, 4)) == "0101"
        assert str(BitString.from_int(0, 3)) == "000"

    def test_from_int_too_large(self):
        with pytest.raises(ValueError):
            BitString.from_int(16, 4)

    def test_from_int_negative(self):
        with pytest.raises(ValueError):
            BitString.from_int(-1, 4)

    def test_from_bytes(self):
        assert str(BitString.from_bytes(b"\xa5")) == "10100101"
        assert len(BitString.from_bytes(b"\x00\xff")) == 16

    def test_random_length(self):
        rng = DeterministicRNG(1)
        assert len(BitString.random(100, rng)) == 100
        assert len(BitString.random(0, rng)) == 0

    def test_random_deterministic(self):
        assert BitString.random(64, DeterministicRNG(7)) == BitString.random(
            64, DeterministicRNG(7)
        )


class TestConversion:
    def test_int_roundtrip(self):
        for value in (0, 1, 5, 255, 1023):
            assert BitString.from_int(value, 12).to_int() == value

    def test_bytes_roundtrip(self):
        data = bytes(range(32))
        assert BitString.from_bytes(data).to_bytes() == data

    def test_bytes_pads_on_right(self):
        bits = BitString([1, 0, 1])  # 101 -> 1010 0000
        assert bits.to_bytes() == b"\xa0"

    def test_to_list_is_copy(self):
        bits = BitString([1, 0])
        as_list = bits.to_list()
        as_list[0] = 0
        assert bits[0] == 1

    def test_repr_short_and_long(self):
        assert "1010" in repr(BitString([1, 0, 1, 0]))
        assert "len=100" in repr(BitString.zeros(100))


class TestSequenceProtocol:
    def test_indexing_and_slicing(self):
        bits = BitString([1, 0, 1, 1, 0])
        assert bits[0] == 1
        assert bits[-1] == 0
        assert bits[1:3] == BitString([0, 1])

    def test_iteration(self):
        assert list(BitString([1, 0, 1])) == [1, 0, 1]

    def test_equality_and_hash(self):
        assert BitString([1, 0]) == BitString([1, 0])
        assert BitString([1, 0]) != BitString([0, 1])
        assert hash(BitString([1, 0])) == hash(BitString([1, 0]))
        assert BitString([1]) != "1"

    def test_concatenation_operator(self):
        assert BitString([1]) + BitString([0, 1]) == BitString([1, 0, 1])

    def test_concat_method(self):
        assert BitString([1]).concat(BitString([0]), BitString([1])) == BitString([1, 0, 1])


class TestBitwise:
    def test_xor(self):
        assert BitString([1, 0, 1]) ^ BitString([1, 1, 0]) == BitString([0, 1, 1])

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            BitString([1]) ^ BitString([1, 0])

    def test_and(self):
        assert BitString([1, 0, 1]) & BitString([1, 1, 0]) == BitString([1, 0, 0])

    def test_invert(self):
        assert ~BitString([1, 0, 1]) == BitString([0, 1, 0])


class TestCryptoHelpers:
    def test_parity(self):
        bits = BitString([1, 0, 1, 1])
        assert bits.parity() == 1
        assert BitString([1, 1]).parity() == 0

    def test_subset(self):
        bits = BitString([1, 0, 1, 1, 0])
        assert bits.subset([0, 2, 4]) == BitString([1, 1, 0])

    def test_hamming_distance_and_error_rate(self):
        a = BitString([1, 0, 1, 0])
        b = BitString([1, 1, 1, 1])
        assert a.hamming_distance(b) == 2
        assert a.error_rate(b) == 0.5
        assert BitString().error_rate(BitString()) == 0.0

    def test_chunks(self):
        bits = BitString([1, 0, 1, 1, 0])
        chunks = bits.chunks(2)
        assert chunks == [BitString([1, 0]), BitString([1, 1]), BitString([0])]

    def test_chunks_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BitString([1]).chunks(0)

    def test_balance(self):
        assert BitString([1, 1, 0, 0]).balance() == 0.5
        assert BitString().balance() == 0.0

    def test_runs(self):
        assert BitString([0, 0, 1, 1, 1, 0]).runs() == [2, 3, 1]
        assert BitString().runs() == []
        assert BitString([1]).runs() == [1]


class TestProperties:
    @given(bit_lists)
    def test_roundtrip_through_string(self, bits):
        bs = BitString(bits)
        assert BitString(int(ch) for ch in str(bs)) == bs

    @given(bit_lists)
    def test_xor_self_is_zero(self, bits):
        bs = BitString(bits)
        assert (bs ^ bs) == BitString.zeros(len(bs))

    @given(bit_lists, bit_lists)
    def test_xor_commutes(self, a, b):
        n = min(len(a), len(b))
        x, y = BitString(a[:n]), BitString(b[:n])
        assert (x ^ y) == (y ^ x)

    @given(bit_lists)
    def test_double_invert_is_identity(self, bits):
        bs = BitString(bits)
        assert ~~bs == bs

    @given(bit_lists)
    def test_hamming_distance_equals_xor_popcount(self, bits):
        bs = BitString(bits)
        other = ~bs
        assert bs.hamming_distance(other) == (bs ^ other).to_int().bit_count() == len(bs)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_int_roundtrip_property(self, value):
        assert BitString.from_int(value, 64).to_int() == value

    @given(st.binary(max_size=64))
    def test_bytes_roundtrip_property(self, data):
        assert BitString.from_bytes(data).to_bytes() == data

    @given(bit_lists)
    def test_runs_sum_to_length(self, bits):
        assert sum(BitString(bits).runs()) == len(bits)
