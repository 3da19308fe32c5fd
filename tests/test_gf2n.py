"""Tests for GF(2^n) arithmetic and the privacy-amplification hash primitive."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mathkit.gf2n import (
    MAX_FIELD_DEGREE,
    PRIMITIVE_POLYNOMIALS,
    GF2nField,
    carryless_multiply,
    polynomial_from_exponents,
    round_up_to_field_degree,
)
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.oracles.mathkit import is_irreducible, polynomial_gcd, polynomial_mod


class TestPolynomialHelpers:
    def test_round_up(self):
        assert round_up_to_field_degree(1) == 32
        assert round_up_to_field_degree(32) == 32
        assert round_up_to_field_degree(33) == 64
        assert round_up_to_field_degree(0) == 32

    def test_polynomial_from_exponents(self):
        # x^8 + x^4 + x^3 + x + 1 = 0x11B
        assert polynomial_from_exponents(8, (4, 3, 1)) == 0x11B

    def test_polynomial_from_exponents_validates(self):
        with pytest.raises(ValueError):
            polynomial_from_exponents(8, (8,))
        with pytest.raises(ValueError):
            polynomial_from_exponents(8, (0,))

    def test_carryless_multiply(self):
        # (x + 1)(x + 1) = x^2 + 1 over GF(2)
        assert carryless_multiply(0b11, 0b11) == 0b101
        assert carryless_multiply(0, 12345) == 0
        assert carryless_multiply(1, 12345) == 12345

    def test_polynomial_mod(self):
        assert polynomial_mod(0b101, 0b11) == 0  # x^2+1 = (x+1)^2
        assert polynomial_mod(0b100, 0b111) == polynomial_mod(0b100, 0b111)
        assert polynomial_mod(5, 8 | 3) in range(8 | 3)

    def test_polynomial_gcd(self):
        # gcd((x+1)^2, x+1) = x+1
        assert polynomial_gcd(0b101, 0b11) == 0b11
        assert polynomial_gcd(0b11, 0b101) == 0b11


class TestIrreducibility:
    def test_known_irreducible(self):
        # x^8 + x^4 + x^3 + x + 1 (the AES polynomial) is irreducible.
        assert is_irreducible(0x11B)

    def test_known_reducible(self):
        # x^2 + 1 = (x + 1)^2 over GF(2)
        assert not is_irreducible(0b101)
        # x^4 + x^2 + 1 = (x^2+x+1)^2
        assert not is_irreducible(0b10101)

    def test_degree_one_irreducible(self):
        assert is_irreducible(0b10)  # x
        assert is_irreducible(0b11)  # x + 1

    @pytest.mark.parametrize("degree", [8, 16, 32, 64, 96, 128])
    def test_table_entries_are_irreducible(self, degree):
        exponents = PRIMITIVE_POLYNOMIALS[degree]
        assert is_irreducible(polynomial_from_exponents(degree, exponents))

    def test_table_covers_multiples_of_32(self):
        for degree in range(32, MAX_FIELD_DEGREE + 1, 32):
            assert degree in PRIMITIVE_POLYNOMIALS


class TestFieldAxioms:
    def test_requires_known_or_explicit_polynomial(self):
        with pytest.raises(ValueError):
            GF2nField(40)  # not in the table, no exponents given
        field = GF2nField(40, (5, 4, 3))
        assert field.degree == 40

    def test_multiplicative_identity(self):
        field = GF2nField(32)
        assert field.multiply(0xCAFEBABE, 1) == 0xCAFEBABE
        assert field.multiply(0, 0x1234) == 0

    def test_element_range_enforced(self):
        field = GF2nField(8)
        with pytest.raises(ValueError):
            field.multiply(256, 1)

    def test_aes_field_known_product(self):
        # In GF(2^8) with the AES polynomial, 0x57 * 0x83 = 0xC1 (FIPS-197 example).
        field = GF2nField(8, (4, 3, 1))
        assert field.multiply(0x57, 0x83) == 0xC1


class TestLinearHash:
    def test_truncation_length(self):
        field = GF2nField(32)
        out = field.linear_hash(0x12345678, 0x9ABCDEF0, 0x5555, 16)
        assert 0 <= out < (1 << 16)

    def test_zero_output_bits(self):
        field = GF2nField(32)
        assert field.linear_hash(123, 456, 0, 0) == 0

    def test_output_bits_bounded(self):
        field = GF2nField(32)
        with pytest.raises(ValueError):
            field.linear_hash(1, 1, 0, 33)

    def test_hash_bits_roundtrip_types(self):
        field = GF2nField(64)
        rng = DeterministicRNG(1)
        key = BitString.random(64, rng)
        out = field.hash_bits(key, 0xABCDEF, 0x123, 24)
        assert isinstance(out, BitString)
        assert len(out) == 24

    def test_hash_bits_rejects_long_key(self):
        field = GF2nField(32)
        with pytest.raises(ValueError):
            field.hash_bits(BitString.from_int(0, 33), 1, 0, 8)

    def test_both_sides_agree(self):
        """Alice and Bob applying the same announced parameters get the same output."""
        field_a = GF2nField(96)
        field_b = GF2nField(96)
        rng = DeterministicRNG(9)
        key = BitString.random(96, rng)
        multiplier = rng.getrandbits(96)
        addend = rng.getrandbits(40)
        assert field_a.hash_bits(key, multiplier, addend, 40) == field_b.hash_bits(
            key, multiplier, addend, 40
        )

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=2**32 - 1),
    )
    @settings(max_examples=50)
    def test_hash_is_linear_in_the_key(self, key_a, key_b, multiplier):
        """h(a xor b) xor h(a) xor h(b) == h(0) for every fixed multiplier/addend.

        This is the linearity privacy amplification relies on (a linear hash
        over GF(2^n) is a 2-universal family when the multiplier is random).
        """
        field = GF2nField(32)
        addend = 0x0F0F
        m = 20

        def h(x):
            return field.linear_hash(x, multiplier, addend, m)

        assert h(key_a ^ key_b) ^ h(key_a) ^ h(key_b) == h(0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_multiply_commutes(self, a):
        field = GF2nField(32)
        b = 0x1357_9BDF
        assert field.multiply(a, b) == field.multiply(b, a)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30)
    def test_multiply_distributes_over_add(self, a, b, c):
        field = GF2nField(32)
        left = field.multiply(a, b ^ c)
        right = field.multiply(a, b) ^ field.multiply(a, c)
        assert left == right
