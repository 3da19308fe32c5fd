"""Differential tests: sparse ``transmit_lanes`` vs. the retained dense oracle.

``transmit_lanes`` draws every slot but computes the interference and click
logic only on the slots where a detector fired.  It must be observationally
identical to ``tests/oracles/dense_optics.py`` (the body it replaced, which
evaluates everything everywhere): the same eight per-slot arrays, the same
attack bookkeeping, and — because a later batch continues the same streams —
the same state left behind in every generator it touched.

Below that: the numpy canaries (what the sparse photon lists and the two draw
kernels of ``repro.optics.draws`` rely on numpy doing, each failing by name
with what depends on it) and the kernels themselves against the ``Generator``
methods they stand in for — values, non-empty slots, full state dict, and the
next draw of each kind.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.eve import BeamSplittingAttack, InterceptResendAttack
from repro.optics.channel import ChannelParameters, QuantumChannel, transmit_lanes
from repro.optics.model import DetectorParameters
from repro.optics.draws import (
    REPLAY_BELOW,
    _replay_multiplication_method,
    coin_flips,
    poisson_counts,
)
from repro.optics.entangled import EntangledSourceParameters
from repro.optics.fiber import OpticalPath
from repro.optics.model import InterferometerParameters
from repro.optics.source import SourceParameters
from repro.optics.timing import FramingParameters
from repro.util.rng import DeterministicRNG
from tests.oracles.dense_optics import PassiveChannel, dense_transmit_lanes

SLOT_ARRAYS = (
    "alice_basis",
    "alice_value",
    "alice_photons",
    "bob_basis",
    "bob_click",
    "bob_double",
    "bob_value",
    "frame_numbers",
)

#: Fresh attack per side: attacks keep their last record on the instance.
ATTACKS = {
    "none": lambda: None,
    "passive": PassiveChannel,
    "intercept-resend": lambda: InterceptResendAttack(intercept_fraction=0.6),
    "intercept-resend-bright": lambda: InterceptResendAttack(resend_mean_photons=2.0),
    "beam-splitting": BeamSplittingAttack,
    "beam-splitting-lossless": lambda: BeamSplittingAttack(lossless_forwarding=True),
}

SLOTS_PER_FRAME = 64


def off_or(low, high):
    """Zero for "feature off" (no draw taken), or a value large enough to act
    within a few hundred slots."""
    return st.one_of(st.just(0.0), st.floats(low, high))


lane_specs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32),
        "mu": st.floats(0.05, 3.0),
        "distance_km": st.floats(0.0, 40.0),
        "visibility": st.floats(0.5, 1.0),
        "phase_noise_rad": off_or(0.01, 0.5),
        "dark_count_probability": st.floats(1e-5, 0.1),
        "afterpulse_probability": off_or(0.05, 0.5),
        "gate_misalignment_penalty": off_or(0.05, 0.6),
        "frame_loss_probability": off_or(0.1, 0.9),
        "entangled": st.booleans(),
        "attack": st.sampled_from(sorted(ATTACKS)),
    }
)

#: Empty, a single slot, odd and shorter than a frame, several frames and a
#: ragged tail.
slot_counts = st.sampled_from([0, 1, 37, 3 * SLOTS_PER_FRAME + 5])


def build_channel(spec):
    parameters = ChannelParameters(
        source=SourceParameters(mean_photon_number=spec["mu"]),
        path=OpticalPath.single_span(spec["distance_km"]),
        interferometer=InterferometerParameters(
            visibility=spec["visibility"], phase_noise_rad=spec["phase_noise_rad"]
        ),
        detectors=DetectorParameters(
            dark_count_probability=spec["dark_count_probability"],
            afterpulse_probability=spec["afterpulse_probability"],
        ),
        framing=FramingParameters(
            slots_per_frame=SLOTS_PER_FRAME,
            frame_loss_probability=spec["frame_loss_probability"],
            gate_misalignment_penalty=spec["gate_misalignment_penalty"],
        ),
        entangled_source=(
            EntangledSourceParameters(mean_pairs_per_pulse=spec["mu"])
            if spec["entangled"]
            else None
        ),
    )
    return QuantumChannel(parameters, DeterministicRNG(spec["seed"]))


def generator_states(channel):
    return [
        generator.bit_generator.state
        for generator in (
            channel._numpy_rng,
            channel.source._numpy_rng,
            channel.framing._numpy_rng,
        )
    ]


def assert_same_record(record, expected):
    assert record.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(record[key], value), key
        else:
            assert record[key] == value, key


#: One lane per source type with every optional draw switched on, for the
#: explicit batch shapes below.
EXAMPLE_LANES = [
    {
        "seed": 2003 + entangled,
        "mu": 0.7,
        "distance_km": 5.0,
        "visibility": 0.9,
        "phase_noise_rad": 0.1,
        "dark_count_probability": 0.05,
        "afterpulse_probability": 0.3,
        "gate_misalignment_penalty": 0.2,
        "frame_loss_probability": 0.3,
        "entangled": bool(entangled),
        "attack": attack,
    }
    for entangled, attack in ((0, "none"), (1, "none"), (0, "intercept-resend-bright"))
]


@settings(max_examples=150, deadline=None)
@given(st.lists(lane_specs, min_size=1, max_size=4), st.lists(slot_counts, min_size=1, max_size=2))
# Empty and one-slot batches, alone and between others: the lengths at which a
# replayed draw and the numpy call it stands for can part (``bytes(0)``).
@example(EXAMPLE_LANES, [0])
@example(EXAMPLE_LANES, [1])
@example(EXAMPLE_LANES, [0, 1, 0])
def test_sparse_transmit_matches_the_dense_oracle(specs, batches):
    channels = [build_channel(spec) for spec in specs]
    oracle_channels = [build_channel(spec) for spec in specs]
    attacks = [ATTACKS[spec["attack"]]() for spec in specs]
    oracle_attacks = [ATTACKS[spec["attack"]]() for spec in specs]

    # Consecutive batches: the second starts from the state the first left.
    for n_slots in batches:
        frames = transmit_lanes(channels, n_slots, attacks)
        expected = dense_transmit_lanes(oracle_channels, n_slots, oracle_attacks)
        for lane, (frame, reference) in enumerate(zip(frames, expected)):
            for name in SLOT_ARRAYS:
                assert np.array_equal(getattr(frame, name), reference[name]), (lane, name)
            assert_same_record(frame.attack_record, reference["attack_record"])
        for channel, oracle_channel in zip(channels, oracle_channels):
            assert generator_states(channel) == generator_states(oracle_channel)
            assert channel.slots_transmitted == oracle_channel.slots_transmitted
            assert channel.source.pulses_emitted == oracle_channel.source.pulses_emitted


def test_binomial_skips_zero_counts_without_consuming():
    """numpy canary for the sparse photon lists in ``transmit_lanes``."""
    counts = np.random.default_rng(5).poisson(0.3, size=10_000)
    occupied = counts > 0
    assert 0 < occupied.sum() < counts.size

    dense_rng = np.random.default_rng(2003)
    sparse_rng = np.random.default_rng(2003)
    dense = dense_rng.binomial(counts, 0.63)
    sparse = np.zeros_like(dense)
    sparse[occupied] = sparse_rng.binomial(counts[occupied], 0.63)

    assert (
        np.array_equal(dense, sparse)
        and dense_rng.bit_generator.state == sparse_rng.bit_generator.state
    ), (
        "Generator.binomial(0, p) no longer returns 0 without advancing the bit "
        "generator on this numpy. repro.optics.channel.transmit_lanes draws the "
        "fibre-loss and gate-thinning binomials on the non-zero photon counts only "
        "and relies on that being the dense draw, values and stream position alike; "
        "every pinned key-material digest will move with it."
    )


def _holding_buffered_uint32(seed, uint8_draws):
    """A generator that has (1-3 ``uint8`` draws) or has not (0) left half a
    64-bit word buffered — the state every 32-bit draw must carry through."""
    rng = np.random.default_rng(seed)
    if uint8_draws:
        rng.integers(0, 256, size=uint8_draws, dtype=np.uint8)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def test_canary_coin_flips_are_the_top_bit_of_the_byte_stream():
    """numpy canary for ``repro.optics.draws.coin_flips``."""
    failure = (
        "Generator.integers(0, 2, n, dtype=uint8) is no longer the top bit of the "
        "bytes Generator.bytes(n) returns, stream position included, on this numpy. "
        "repro.optics.draws.coin_flips draws Alice's basis and value, Bob's basis, "
        "the double-click coin, the afterpulse detector and Eve's basis and guesses "
        "that way; every pinned key-material digest will move with it."
    )
    for n in (1, 2, 3, 4, 5, 7, 8, 4095, 4096, 4097, 500_000):
        for uint8_draws in range(4):
            reference_rng = _holding_buffered_uint32(2003 + n, uint8_draws)
            bytes_rng = _holding_buffered_uint32(2003 + n, uint8_draws)
            reference = reference_rng.integers(0, 2, size=n, dtype=np.uint8)
            from_bytes = np.frombuffer(bytes_rng.bytes(n), dtype=np.uint8) >> 7
            assert np.array_equal(reference, from_bytes), failure
            assert reference_rng.bit_generator.state == bytes_rng.bit_generator.state, failure

    # n = 0 is the one length where the two calls part: integers() takes
    # nothing, bytes(0) takes a 32-bit word.  coin_flips special-cases it;
    # this records why the special case cannot be simplified away.
    for uint8_draws in range(4):
        rng = _holding_buffered_uint32(2003, uint8_draws)
        before = rng.bit_generator.state
        assert rng.integers(0, 2, size=0, dtype=np.uint8).shape == (0,)
        assert rng.bit_generator.state == before, failure
        assert rng.bytes(0) == b""
        assert rng.bit_generator.state != before, (
            "Generator.bytes(0) no longer consumes a 32-bit word on this numpy: the "
            "n == 0 branch of repro.optics.draws.coin_flips may now be unnecessary, "
            "but check the identity above before removing it."
        )


def _poisson_mult_transcription(rng, lam, n):
    """numpy's ``random_poisson_mult`` (legacy-distributions.c), line for line,
    over ``Generator.random`` doubles."""
    enlam = math.exp(-lam)
    counts = []
    for _ in range(n):
        x = 0
        prod = 1.0
        while True:
            prod *= rng.random()
            if prod > enlam:
                x += 1
            else:
                break
        counts.append(x)
    return np.array(counts, dtype=np.int64)


def test_canary_poisson_is_the_multiplication_method_on_the_double_stream():
    """numpy canary for ``repro.optics.draws.poisson_counts``."""
    failure = (
        "Generator.poisson(lam, n) for 0 < lam < 10 is no longer the multiplication "
        "method (multiply uniform doubles until the product falls to exp(-lam)) over "
        "the doubles Generator.random returns, with exp(-lam) == math.exp(-lam), on "
        "this numpy. repro.optics.draws.poisson_counts replays the photon number of "
        "every pulse (both sources, Eve's resent pulses) from that stream; every "
        "pinned key-material digest will move with it."
    )
    for lam in (0.01, 0.1, 1.0, 9.9):
        for n in (0, 1, 7, 2000):
            for uint8_draws in (0, 3):
                reference_rng = _holding_buffered_uint32(2003, uint8_draws)
                replay_rng = _holding_buffered_uint32(2003, uint8_draws)
                reference = reference_rng.poisson(lam, size=n)
                replayed = _poisson_mult_transcription(replay_rng, lam, n)
                assert np.array_equal(reference, replayed), failure
                assert (
                    reference_rng.bit_generator.state == replay_rng.bit_generator.state
                ), failure

    # lam == 0 is numpy's own early return: zeros, nothing consumed.
    rng = _holding_buffered_uint32(2003, 3)
    before = rng.bit_generator.state
    assert not rng.poisson(0.0, size=1000).any(), failure
    assert rng.bit_generator.state == before, failure


# ---------------------------------------------------------------------- #
# The draw kernels against the Generator methods they replace
# ---------------------------------------------------------------------- #

#: Earlier draws of every kind, so a kernel starts from a generator that may
#: hold a buffered half-word (odd-length uint8) and sits anywhere in its stream.
draw_prefixes = st.lists(
    st.tuples(st.sampled_from(["uint8", "random", "binomial"]), st.integers(0, 6)),
    max_size=4,
)


def generator_pair(seed, prefix):
    """Two generators in the same state, reached through ``prefix``."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        for kind, k in prefix:
            if kind == "uint8":
                rng.integers(0, 256, size=2 * k + 1, dtype=np.uint8)
            elif kind == "random":
                rng.random(k)
            else:
                rng.binomial(5, 0.3, size=k)
    return pair


def assert_same_stream(rng, reference_rng):
    """Full state dict, and the next call of each kind agrees too."""
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    for later_draw in (
        lambda g: g.integers(0, 2, size=5, dtype=np.uint8),
        lambda g: g.random(3),
        lambda g: g.poisson(0.1, size=7),
    ):
        assert np.array_equal(later_draw(rng), later_draw(reference_rng))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    draw_prefixes,
    st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 4097, 2**16 + 1]),
    st.booleans(),
)
def test_coin_flips_is_generator_integers(seed, prefix, n, into_row):
    rng, reference_rng = generator_pair(seed, prefix)
    reference = reference_rng.integers(0, 2, size=n, dtype=np.uint8)
    row = np.full(n, 7, dtype=np.uint8) if into_row else None
    flips = coin_flips(rng, n, out=row)
    assert flips.dtype == np.uint8 and flips.flags.writeable
    assert row is None or flips is row
    assert np.array_equal(flips, reference)
    assert_same_stream(rng, reference_rng)


poisson_means = st.one_of(
    st.just(0.0),
    st.floats(1e-4, 10.0, exclude_max=True),
    st.floats(10.0, 100.0),
    # Either side of the line where the kernel hands the draw back to numpy.
    st.sampled_from([0.05, 0.1, np.nextafter(REPLAY_BELOW, 0), REPLAY_BELOW]),
)


@settings(max_examples=300, deadline=None)
@given(
    poisson_means,
    st.sampled_from([0, 1, 2, 3, 17, 1000, 2**16 + 1]),
    st.integers(0, 2**32),
    draw_prefixes,
    st.booleans(),
)
# 64 doubles that end on three above exp(-0.45) whose product is still above
# it: the first round leaves a pulse unfinished, which must be neither counted
# nor lost, and the shortfall is drawn in further rounds.
@example(0.45, 64, 139, [], False)
# The same with a buffered half-word to carry through the rounds.
@example(0.45, 64, 139, [("uint8", 1)], True)
# Five rounds (65537 -> ~6200 -> ~590 -> ...), the production shape in small.
@example(0.1, 2**16 + 1, 2003, [("uint8", 0), ("binomial", 3)], True)
def test_poisson_counts_is_generator_poisson(lam, n, seed, prefix, into_row):
    rng, reference_rng = generator_pair(seed, prefix)
    reference = reference_rng.poisson(lam, size=n)
    row = np.full(n, 7, dtype=np.int64) if into_row else None
    counts, slots = poisson_counts(rng, lam, n, out=row)
    assert counts.dtype == (np.int64 if into_row else np.uint16)
    assert row is None or counts is row
    assert np.array_equal(counts, reference)
    assert np.array_equal(slots, reference.nonzero()[0])
    assert_same_stream(rng, reference_rng)

    # The replay is the multiplication method for every mean numpy uses it
    # at, not only below REPLAY_BELOW: that line is about cost alone.
    if 0 < lam < 10 and n <= 1000:
        rng, reference_rng = generator_pair(seed, prefix)
        reference = reference_rng.poisson(lam, size=n)
        slots, occupancy = _replay_multiplication_method(rng, math.exp(-lam), n)
        assert np.array_equal(slots, reference.nonzero()[0])
        assert np.array_equal(occupancy, reference[slots])
        assert_same_stream(rng, reference_rng)


def test_the_unfinished_pulse_example_is_what_it_says():
    """Guards the first two ``@example`` rows above against a silent change of meaning."""
    doubles = np.random.default_rng(139).random(64)
    line = math.exp(-0.45)
    assert doubles[-4] <= line
    assert (doubles[-3:] > line).all() and doubles[-3] * doubles[-2] * doubles[-1] > line
