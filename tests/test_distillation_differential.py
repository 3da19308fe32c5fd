"""Differential tests: the distillation table kernels vs. their scalar definitions.

Three per-block loops read their answers out of tables because the maps
behind them are linear over GF(2): the LFSR subset expansion, the
Wegman-Carter chain and the bisect-query serialisation.  Each must be
observationally identical to the definition it replaced — ``LFSR.step()``,
one ``hash_value`` per chunk, ``CascadeBisectQuery(indices=...).encode()`` —
which are the oracles here.  Section (d) holds Cascade's array bookkeeping
as a whole to the record-per-subset ``reconcile`` it replaced
(``tests/oracles/scalar_cascade.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cascade import CascadeParameters, CascadeProtocol
from repro.core.messages import (
    CascadeBisection,
    CascadeBisectQuery,
    CascadeBisectReply,
    PublicChannelLog,
    SiftResponseMessage,
    SubsetPositions,
    _slice_query_bytes,
)
from repro.mathkit import lfsr
from repro.mathkit.toeplitz import ToeplitzHash
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.oracles.mathkit import lfsr_subset_masks
from tests.oracles.scalar_cascade import expanded, messages_of_type, scalar_reconcile

# --------------------------------------------------------------------------- #
# (a) LFSR subset expansion
# --------------------------------------------------------------------------- #

EDGE_SEEDS = [0, 1, 2**32, 2**32 - 1, 0x80000000, 0xDEADBEEF]


def stepped_mask(seed, length, density):
    """A seed's subset mask, one ``LFSR.step()`` at a time."""
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
    assert lfsr_subset_masks(seeds, length, density) == [
        BitString(bits) for bits in expected
    ]


@pytest.mark.parametrize("density", [0.5, 0.3])
def test_lfsr_rows_match_stepped_stream_across_table_growth(empty_stream_table, density):
    # Short -> long -> short: the table grows twice, then serves prefixes.
    for length in (0, 1, 7, 8, 9, 61, 1000, 3, 2500, 8, 1001, 0):
        assert_masks_match(EDGE_SEEDS, length, density)
    per_position = 8 if density == 0.5 else 1
    assert empty_stream_table._grown[0].shape == (4, 256, -(-2500 // per_position))


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
    table = empty_stream_table._grown[0]
    assert table.shape == (4, 256, 1250)  # 1 KiB per stream byte
    reconcile(2048, seed=2)
    assert empty_stream_table._grown[0] is table


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
    reference = CascadeBisectQuery(
        round_index=3, subset_index=17, indices=tuple(positions[lo:hi])
    )
    encoded = _slice_query_bytes(3, 17, subset, lo, hi)
    assert encoded == reference.encode()
    assert CascadeBisectQuery.decode(encoded) == reference
    # The same step inside a whole-search entry, twice over so the entry has
    # to find where one message ends and the next begins.
    reply = CascadeBisectReply(round_index=3, subset_index=17, parity=1)
    entry = CascadeBisection.over(3, 17, subset, [(lo, hi, 1), (lo, hi, 1)])
    assert entry.wire_bytes == 2 * (encoded + reply.encode())
    assert entry.messages() == [reference, reply, reference, reply]
    assert entry.message_count == 4


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


# --------------------------------------------------------------------------- #
# (d) Cascade's array bookkeeping vs. one record object per subset
# --------------------------------------------------------------------------- #


def assert_reconcile_matches_scalar(n, error_rate, block_first_pass, density, with_hint, seed):
    rng = DeterministicRNG(seed)
    reference = BitString.random(n, rng)
    noisy = reference.to_list()
    for index in rng.sample(range(n), int(round(error_rate * n))):
        noisy[index] ^= 1
    noisy = BitString(noisy)
    parameters = CascadeParameters(block_first_pass=block_first_pass, subset_density=density)
    hint = max(error_rate, 0.001) if with_hint else None

    def run(reconcile):
        protocol = CascadeProtocol(parameters, DeterministicRNG(seed + 1))
        # A message ahead of Cascade's, as the pipeline's shared log has.
        log = PublicChannelLog([SiftResponseMessage(frame_id=1, accept_mask=[1, 0])])
        result = reconcile(protocol, reference, noisy, log=log, error_rate_hint=hint)
        assert result.message_log is log
        return result, protocol.rng.getrandbits(32)

    expected, expected_draw = run(scalar_reconcile)
    result, draw = run(CascadeProtocol.reconcile)
    log, expected_log = result.message_log, expected.message_log
    assert log.transcript_bytes() == expected_log.transcript_bytes()
    assert log.total_bytes == expected_log.total_bytes
    # The scalar log holds one object per message; JSON is the semantic
    # fingerprint that does not care whether a field is a list or an array.
    assert len(log) == len(expected_log) == len(expected_log.messages)
    assert [(type(m), m.encode_json()) for m in expanded(log)] == [
        (type(m), m.encode_json()) for m in expected_log.messages
    ]
    for message_type in (CascadeBisectQuery, CascadeBisectReply):
        assert len(messages_of_type(log, message_type)) == result.bisection_queries
    for name in (
        "corrected_key",
        "errors_corrected",
        "disclosed_parities",
        "independent_parities",
        "rounds_used",
        "bisection_queries",
        "confirmed",
        "matches_reference",
    ):
        assert getattr(result, name) == getattr(expected, name), name
    assert draw == expected_draw


@pytest.mark.parametrize("block_first_pass", [True, False])
@pytest.mark.parametrize("density", [0.05, 0.5, 1.0])
def test_reconcile_matches_scalar_records_on_a_noisy_block(block_first_pass, density):
    assert_reconcile_matches_scalar(1500, 0.08, block_first_pass, density, True, seed=5)


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 70), st.integers(1, 3000)),
    error_rate=st.one_of(st.just(0.0), st.floats(0.0, 0.25)),
    block_first_pass=st.booleans(),
    density=st.sampled_from([0.05, 0.5, 1.0]),
    with_hint=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_reconcile_matches_scalar_records(
    n, error_rate, block_first_pass, density, with_hint, seed
):
    assert_reconcile_matches_scalar(n, error_rate, block_first_pass, density, with_hint, seed)
