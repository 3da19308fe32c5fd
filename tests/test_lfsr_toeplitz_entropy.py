"""Tests for LFSRs, Toeplitz hashing and the entropy math helpers."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.mathkit.entropy import (
    binary_entropy,
    combine_stddevs,
    eavesdropping_failure_probability,
)
from repro.mathkit.lfsr import LFSR, lfsr_subset_rows
from repro.mathkit.toeplitz import ToeplitzHash
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.oracles.mathkit import (
    gf2_dot,
    lfsr_subset_mask,
    lfsr_subset_masks,
    toeplitz_matrix_rows,
)


def subset_mask(seed, length, density=0.5):
    """One seed's mask from the shipped batch expansion."""
    return BitString(lfsr_subset_rows([seed], length, density)[0].astype(int))


class TestLFSR:
    def test_deterministic_for_seed(self):
        assert LFSR(0xDEADBEEF).bits(128) == LFSR(0xDEADBEEF).bits(128)

    def test_different_seeds_differ(self):
        assert LFSR(1).bits(128) != LFSR(2).bits(128)

    def test_zero_seed_is_remapped(self):
        register = LFSR(0)
        assert register.state != 0
        # and it still produces a non-degenerate stream
        stream = register.bits(64)
        assert 0 < stream.to_int().bit_count() < 64

    def test_output_is_balanced(self):
        stream = LFSR(0xACE1).bits(10_000)
        assert abs(stream.balance() - 0.5) < 0.03

    def test_long_period(self):
        # A maximal 32-bit LFSR must not repeat within any practical window.
        register = LFSR(0x1234)
        start = register.state
        for _ in range(100_000):
            register.step()
            assert register.state != start

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            LFSR(1, width=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            LFSR(1).bits(-1)


class TestSubsetMask:
    def test_both_sides_agree_from_seed(self):
        assert subset_mask(0xABCD, 500) == subset_mask(0xABCD, 500)

    def test_density_default_half(self):
        mask = subset_mask(99, 4000)
        assert abs(mask.balance() - 0.5) < 0.05

    def test_density_sparse(self):
        mask = subset_mask(7, 4000, density=0.1)
        assert 0.05 < mask.balance() < 0.16

    def test_density_bounds(self):
        with pytest.raises(ValueError):
            lfsr_subset_rows([1], 10, density=0.0)
        with pytest.raises(ValueError):
            lfsr_subset_rows([1], 10, density=1.5)

    def test_zero_length(self):
        assert lfsr_subset_rows([1], 0).shape == (1, 0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_mask_length_property(self, seed):
        assert len(subset_mask(seed, 137)) == 137


class TestSubsetMaskBatch:
    """The batched expansion must be bit-identical to the per-seed one —
    Cascade's wire format (and the pinned key-material digests) depend on
    it."""

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=8),
        st.sampled_from([1, 7, 8, 9, 64, 137, 500]),
        st.sampled_from([0.5, 0.25, 0.9]),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_single_expansion(self, seeds, length, density):
        batch = lfsr_subset_masks(seeds, length, density)
        assert batch == [lfsr_subset_mask(seed, length, density) for seed in seeds]

    def test_empty_batch(self):
        assert lfsr_subset_masks([], 100) == []

    def test_zero_seed_normalized_like_single(self):
        # Seed 0 maps to the all-ones register state in both paths.
        assert lfsr_subset_masks([0], 64) == [lfsr_subset_mask(0, 64)]

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            lfsr_subset_rows([1], -1)
        with pytest.raises(ValueError):
            lfsr_subset_rows([1], 10, density=0.0)


class TestToeplitz:
    def test_shape_validation(self):
        rng = DeterministicRNG(1)
        with pytest.raises(ValueError):
            ToeplitzHash(BitString.random(10, rng), input_bits=8, output_bits=4)
        with pytest.raises(ValueError):
            ToeplitzHash(BitString.random(11, rng), input_bits=0, output_bits=4)

    def test_output_length(self):
        rng = DeterministicRNG(3)
        hasher = ToeplitzHash.random(64, 16, rng)
        assert len(hasher.hash(BitString.random(64, rng))) == 16

    def test_input_length_enforced(self):
        rng = DeterministicRNG(4)
        hasher = ToeplitzHash.random(32, 8, rng)
        with pytest.raises(ValueError):
            hasher.hash(BitString.random(31, rng))

    def test_same_seed_same_function(self):
        rng = DeterministicRNG(5)
        seed = BitString.random(47, rng)
        h1 = ToeplitzHash.from_seed_bits(seed, 32, 16)
        h2 = ToeplitzHash.from_seed_bits(seed, 32, 16)
        key = BitString.random(32, rng)
        assert h1.hash(key) == h2.hash(key)

    def test_matrix_structure_is_toeplitz(self):
        rng = DeterministicRNG(6)
        hasher = ToeplitzHash.random(8, 4, rng)
        rows = toeplitz_matrix_rows(hasher)
        # constant along diagonals: M[i][j] == M[i+1][j+1]
        for i in range(3):
            for j in range(7):
                assert rows[i][j] == rows[i + 1][j + 1]

    def test_bit_order_convention(self):
        """Pin the documented seed-bit indexing: M[r][c] = diagonal[r - c + n - 1].

        Uses an asymmetric diagonal so any flip of either axis changes the
        matrix.  For a 3x4 hash (input n=4, output m=3), diagonal bits
        d0..d5 must lay out as::

            row 0:  d3 d2 d1 d0
            row 1:  d4 d3 d2 d1
            row 2:  d5 d4 d3 d2
        """
        d = [1, 0, 0, 1, 1, 0]  # d0..d5, asymmetric
        hasher = ToeplitzHash(BitString(d), input_bits=4, output_bits=3)
        rows = toeplitz_matrix_rows(hasher)
        for r in range(3):
            for c in range(4):
                assert rows[r][c] == d[r - c + 4 - 1], (r, c)
        # Row 0 is the first input_bits diagonal bits reversed; column 0 reads
        # the diagonal onward from index input_bits - 1.
        assert rows[0].to_list() == list(reversed(d[:4]))
        assert [row[0] for row in rows] == d[3:6]
        # And the hash is exactly matrix-times-key over GF(2) in that layout.
        key = BitString([1, 1, 0, 1])
        expected = BitString(gf2_dot(row, key) for row in rows)
        assert hasher.hash(key) == expected

    def test_linearity(self):
        rng = DeterministicRNG(7)
        hasher = ToeplitzHash.random(64, 16, rng)
        a = BitString.random(64, rng)
        b = BitString.random(64, rng)
        assert hasher.hash(a ^ b) == hasher.hash(a) ^ hasher.hash(b)

    def test_chained_hash_aligned_matches_per_chunk_hash_value(self):
        """The byte-fed chaining loop equals the generic per-chunk chain.

        ``chained_hash_aligned`` is the Wegman-Carter hot path; it must be
        bit-identical to hashing ``(digest << chunk_bits) | chunk`` zero-padded
        through :meth:`hash_value` one block at a time.
        """
        rng = DeterministicRNG(9)
        for input_bits, output_bits in ((256, 32), (128, 16), (64, 8)):
            hasher = ToeplitzHash.random(input_bits, output_bits, rng)
            payload_bytes = (input_bits - output_bits) // 8
            for length in (0, 1, payload_bytes - 1, payload_bytes, 3 * payload_bytes + 5):
                data = bytes(
                    (length * 37 + i * 101) % 256 for i in range(length)
                )
                digest = 0
                for start in range(0, len(data), payload_bytes):
                    chunk = data[start : start + payload_bytes]
                    chunk_bits = 8 * len(chunk)
                    padded = (digest << chunk_bits) | int.from_bytes(chunk, "big")
                    padded <<= input_bits - output_bits - chunk_bits
                    digest = hasher.hash_value(padded)
                assert hasher.chained_hash_aligned(data, payload_bytes) == digest

    def test_chained_hash_aligned_rejects_bad_geometry(self):
        rng = DeterministicRNG(10)
        hasher = ToeplitzHash.random(256, 32, rng)
        with pytest.raises(ValueError):
            hasher.chained_hash_aligned(b"abc", 27)  # 32 + 8*27 != 256
        odd = ToeplitzHash.random(31, 5, rng)
        with pytest.raises(ValueError):
            odd.chained_hash_aligned(b"abc", 3)

    def test_collision_rate_is_near_universal(self):
        """Random distinct inputs collide at roughly 2^-m under a random member."""
        rng = DeterministicRNG(8)
        output_bits = 8
        hasher = ToeplitzHash.random(32, output_bits, rng)
        collisions = 0
        trials = 2000
        for _ in range(trials):
            a = BitString.random(32, rng)
            b = BitString.random(32, rng)
            if a != b and hasher.hash(a) == hasher.hash(b):
                collisions += 1
        expected = trials * (2 ** -output_bits)
        assert collisions <= expected * 4 + 5


class TestEntropyMath:
    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_binary_entropy_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p))

    def test_binary_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    def test_combine_stddevs(self):
        assert combine_stddevs([3.0, 4.0]) == pytest.approx(5.0)
        assert combine_stddevs([]) == 0.0

    def test_eavesdropping_failure_probability(self):
        # The paper: c = 5 means "about 10^-6 chance of successful eavesdropping".
        p5 = eavesdropping_failure_probability(5.0)
        assert 1e-8 < p5 < 1e-5
        assert eavesdropping_failure_probability(0.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            eavesdropping_failure_probability(-1.0)

    @given(st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=50)
    def test_entropy_monotone_on_half_interval(self, p):
        smaller = max(p - 0.05, 0.0)
        assert binary_entropy(smaller) <= binary_entropy(p) + 1e-12
