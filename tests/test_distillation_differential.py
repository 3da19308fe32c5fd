"""Differential tests: the distillation table kernels vs. their scalar definitions.

Three per-block loops read their answers out of tables because the maps
behind them are linear over GF(2): the LFSR subset expansion, the
Wegman-Carter chain and the bisect-query serialisation.  Each must be
observationally identical to the definition it replaced — ``LFSR.step()``,
one ``hash_value`` per chunk, ``CascadeBisectQuery(indices=...).encode()`` —
which are the oracles here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cascade import CascadeProtocol
from repro.core.messages import CascadeBisectQuery, SubsetPositions, decode_message
from repro.mathkit import lfsr
from repro.mathkit.toeplitz import ToeplitzHash
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

# --------------------------------------------------------------------------- #
# (a) LFSR subset expansion
# --------------------------------------------------------------------------- #

EDGE_SEEDS = [0, 1, 2**32, 2**32 - 1, 0x80000000, 0xDEADBEEF]


def stepped_mask(seed, length, density):
    """``lfsr_subset_mask`` one ``LFSR.step()`` at a time."""
    register = lfsr.LFSR(seed)
    if density == 0.5:
        return [register.step() for _ in range(length)]
    threshold = int(round(density * 256))
    bits = []
    for _ in range(length):
        byte = 0
        for _ in range(8):
            byte = (byte << 1) | register.step()
        bits.append(1 if byte < threshold else 0)
    return bits


@pytest.fixture
def empty_stream_table(monkeypatch):
    """Start from an empty table so growth is part of what is tested."""
    table = lfsr._StreamTable()
    monkeypatch.setattr(lfsr, "_SUBSET_STREAMS", table)
    return table


def assert_masks_match(seeds, length, density):
    rows = lfsr.lfsr_subset_rows(seeds, length, density)
    assert rows.shape == (len(seeds), length)
    expected = [stepped_mask(seed, length, density) for seed in seeds]
    assert rows.astype(int).tolist() == expected
    assert lfsr.lfsr_subset_masks(seeds, length, density) == [
        BitString(bits) for bits in expected
    ]


@pytest.mark.parametrize("density", [0.5, 0.3])
def test_lfsr_rows_match_stepped_stream_across_table_growth(empty_stream_table, density):
    # Short -> long -> short: the table grows twice, then serves prefixes.
    for length in (0, 1, 7, 8, 9, 61, 1000, 3, 2500, 8, 1001, 0):
        assert_masks_match(EDGE_SEEDS, length, density)
    per_position = 8 if density == 0.5 else 1
    assert empty_stream_table.table.shape == (4, 256, -(-2500 // per_position))


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**33), max_size=5),
    lengths=st.lists(st.integers(0, 300), min_size=1, max_size=4),
    density=st.sampled_from([0.5, 0.5, 0.1, 0.73, 1.0]),
)
def test_lfsr_rows_match_stepped_stream(seeds, lengths, density):
    saved = lfsr._SUBSET_STREAMS
    lfsr._SUBSET_STREAMS = lfsr._StreamTable()
    try:
        for length in lengths:
            assert_masks_match(seeds, length, density)
    finally:
        lfsr._SUBSET_STREAMS = saved


def test_one_stream_table_serves_a_long_then_a_short_key(empty_stream_table):
    def reconcile(n_bits, seed):
        rng = DeterministicRNG(seed)
        reference = BitString.random(n_bits, rng)
        noisy = reference.to_list()
        for index in rng.sample(range(n_bits), n_bits // 50):
            noisy[index] ^= 1
        result = CascadeProtocol(rng=DeterministicRNG(seed + 1)).reconcile(
            reference, BitString(noisy), error_rate_hint=0.02
        )
        assert result.matches_reference

    reconcile(10_000, seed=1)
    table = empty_stream_table.table
    assert table.shape == (4, 256, 1250)  # 1 KiB per stream byte
    reconcile(2048, seed=2)
    assert empty_stream_table.table is table


# --------------------------------------------------------------------------- #
# (b) Wegman-Carter chain
# --------------------------------------------------------------------------- #

#: (input_bits, output_bits): the default, a tag wider than one machine word,
#: a tag that is not a whole number of words, and a one-byte payload.
GEOMETRIES = [(256, 32), (512, 128), (256, 24), (16, 8), (1024, 72)]


def chunked_chain(hasher, data, payload_bytes, init):
    """The chain as one ``hash_value`` per ``digest || chunk || zero-pad`` block."""
    digest = init
    for start in range(0, len(data), payload_bytes):
        chunk = data[start : start + payload_bytes]
        block = (digest << (8 * len(chunk))) | int.from_bytes(chunk, "big")
        digest = hasher.hash_value(block << (8 * (payload_bytes - len(chunk))))
    return digest


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_chained_hash_matches_per_chunk_chain_at_boundary_lengths(geometry):
    input_bits, output_bits = geometry
    payload = (input_bits - output_bits) // 8
    rng = DeterministicRNG(input_bits + output_bits)
    hasher = ToeplitzHash.random(input_bits, output_bits, rng)
    for length in (0, 1, payload - 1, payload, payload + 1, 60_000):
        data = rng.getrandbits(8 * length).to_bytes(length, "big") if length else b""
        for init in (0, rng.getrandbits(output_bits) | 1):
            assert hasher.chained_hash_aligned(data, payload, init) == chunked_chain(
                hasher, data, payload, init
            )


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    diagonal_seed=st.integers(0, 2**32),
    data=st.binary(max_size=400),
    init_seed=st.integers(0, 2**32),
)
def test_chained_hash_matches_per_chunk_chain(geometry, diagonal_seed, data, init_seed):
    input_bits, output_bits = geometry
    hasher = ToeplitzHash.random(input_bits, output_bits, DeterministicRNG(diagonal_seed))
    init = DeterministicRNG(init_seed).getrandbits(output_bits)
    payload = (input_bits - output_bits) // 8
    assert hasher.chained_hash_aligned(data, payload, init) == chunked_chain(
        hasher, data, payload, init
    )


# --------------------------------------------------------------------------- #
# (c) Bisect queries from (subset, lo, hi)
# --------------------------------------------------------------------------- #


def assert_slice_query_matches(positions, lo, hi):
    subset = SubsetPositions(np.array(positions, dtype=np.int64))
    query = CascadeBisectQuery.slice_of(3, 17, subset, lo, hi)
    reference = CascadeBisectQuery(
        round_index=3, subset_index=17, indices=tuple(positions[lo:hi])
    )
    assert tuple(query.indices.tolist()) == reference.indices
    encoded = query.encode()
    assert encoded == reference.encode()
    assert decode_message(encoded) == reference
    assert query.encode_json() == reference.encode_json()


def test_slice_queries_cover_every_coding_case():
    contiguous = list(range(130, 194))  # first index >= 128: two-byte varint
    sparse = [3, 4, 9, 40, 41, 42, 90]
    wide_gap = [5, 6, 200, 201, 330, 331, 332, 900]  # deltas >= 128
    late = [128, 131, 132, 700, 16_384, 16_390]
    for positions in (contiguous, sparse, wide_gap, late):
        for lo in range(len(positions)):
            for hi in range(lo + 1, len(positions) + 1):
                assert_slice_query_matches(positions, lo, hi)


@settings(max_examples=100, deadline=None)
@given(
    positions=st.lists(
        st.integers(0, 3000), min_size=1, max_size=60, unique=True
    ).map(sorted),
    data=st.data(),
)
def test_slice_query_matches_index_query(positions, data):
    lo = data.draw(st.integers(0, len(positions) - 1))
    hi = data.draw(st.integers(lo + 1, len(positions)))
    assert_slice_query_matches(positions, lo, hi)
