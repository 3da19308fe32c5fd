"""SHA-1 across lanes: the scalar reference, prf+ seed by seed, and the callers.

``tests/oracles/scalar_sha1.py`` is one hash at a time — five 32-bit words,
one block — and section (a) holds it to ``hashlib`` from arbitrary chaining
states before anything leans on it.  Section (b) holds ``prf_expand`` to the
stdlib prf+ oracle one seed at a time at the lengths IKE uses and the edges
around them, then a tuple of seeds to the per-seed results.  Section (c)
holds the shipped kernel — k hashes packed at a 64-bit stride in one Python
int — to the reference lane by lane: ``_compress`` from arbitrary states and
at the words that carry furthest, ``_finish`` across every padding edge, the
FIPS 180 and RFC 2202 vectors in every lane position, and each lane's
independence of its neighbours.  Section (d) counts what the callers pay.

CI runs this file as its own step ahead of tier-1, so a packing bug reads as
a failure here and not as forty moved IKE pins.
"""

import hashlib
import hmac as stdlib_hmac
import importlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.sha1 import HmacSha1, prf_expand, sha1
from repro.ipsec.esp import EspProcessor
from repro.ipsec.packets import IPPacket
from repro.ipsec.sad import SecurityAssociation
from repro.ipsec.spd import CipherSuite
from repro.util.rng import DeterministicRNG
from tests.oracles.scalar_sha1 import (
    INITIAL_STATE,
    scalar_compress,
    scalar_finish,
    scalar_sha1,
)
from tests.oracles.slow_sha1 import prf_plus_oracle, slow_sha1
from tests.test_ike_gateway import AES_POLICY, make_daemons, synced_pools

#: ``repro.crypto`` re-exports the function ``sha1`` over its submodule's name.
sha1_module = importlib.import_module("repro.crypto.sha1")

#: Message lengths on both sides of every padding decision (55 is the last
#: tail whose padding fits its block, 56 the first that spills, 64 a whole
#: block), the same one and two blocks later, and anything up to 300.
lengths = st.one_of(
    st.sampled_from((0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129, 183, 184, 192, 300)),
    st.integers(0, 300),
)
messages = lengths.flatmap(lambda n: st.binary(min_size=n, max_size=n))

# --------------------------------------------------------------------------- #
# (a) The scalar reference
# --------------------------------------------------------------------------- #


class TestScalarReference:
    @given(messages)
    @settings(max_examples=80, deadline=None)
    def test_whole_messages_match_hashlib(self, message):
        assert scalar_sha1(message) == hashlib.sha1(message).digest() == slow_sha1(message)

    @given(messages, st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_finishing_from_an_absorbed_prefix_matches_hashlib(self, message, blocks):
        """Any chaining state a real message can reach, then its tail."""
        prefix = min(blocks, len(message) // 64) * 64
        state = INITIAL_STATE
        for offset in range(0, prefix, 64):
            state = scalar_compress(state, message, offset)
        assert scalar_finish(state, message[prefix:], len(message)) == hashlib.sha1(message).digest()


# --------------------------------------------------------------------------- #
# (b) prf+, seed by seed
# --------------------------------------------------------------------------- #

#: Nothing; one byte; exactly one T-block and one byte past it; an AES SA's
#: KEYMAT (16 + 20); the pinned 52; and the one-octet counter's limit.
PRF_LENGTHS = (0, 1, 20, 21, 36, 52, 5100)


def keymat_seeds(count: int, size: int = 164):
    """``count`` distinct seeds the size of one KEYMAT derivation's
    (128 bytes of QBITS, two nonces, an SPI), differing as a negotiation's
    do: in the last bytes, or everywhere when the pools have diverged."""
    base = bytes((5 * i + 3) % 256 for i in range(size))
    seeds = [base[:-1] + bytes([j]) for j in range(count)]
    if count > 2:
        seeds[-1] = bytes(b ^ 0xA5 for b in base)
    return tuple(seeds)


class TestPrfExpandSeeds:
    @pytest.mark.parametrize("length", PRF_LENGTHS)
    @pytest.mark.parametrize("count", range(1, 6))
    def test_every_seed_matches_the_prf_plus_oracle(self, count, length):
        key = bytes(range(20))
        for seed in keymat_seeds(count):
            assert prf_expand(key, seed, length) == prf_plus_oracle(key, seed, length)

    @pytest.mark.parametrize("length", PRF_LENGTHS)
    @pytest.mark.parametrize("count", range(1, 6))
    def test_a_tuple_of_seeds_expands_to_the_per_seed_results(self, count, length):
        key = bytes(range(20))
        seeds = keymat_seeds(count)
        together = prf_expand(key, seeds, length)
        assert isinstance(together, tuple) and len(together) == count
        assert together == tuple(prf_plus_oracle(key, seed, length) for seed in seeds)

    @given(
        st.binary(max_size=80),
        st.integers(1, 5).flatmap(
            lambda count: st.integers(0, 200).flatmap(
                lambda size: st.lists(
                    st.binary(min_size=size, max_size=size), min_size=count, max_size=count
                )
            )
        ),
        st.integers(0, 90),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_key_any_equal_length_seeds(self, key, seeds, length):
        """Repeated seeds are lanes like any other."""
        assert prf_expand(key, tuple(seeds), length) == tuple(
            prf_plus_oracle(key, seed, length) for seed in seeds
        )

    def test_the_result_has_the_shape_of_the_seed(self):
        alone = prf_expand(b"k", b"seed", 30)
        assert isinstance(alone, bytes)
        assert prf_expand(b"k", (b"seed",), 30) == (alone,)
        assert prf_expand(b"k", (b"seed", b"seed"), 0) == (b"", b"")

    @pytest.mark.parametrize("length", [0, 36])
    def test_unequal_seed_lengths_are_refused(self, length):
        with pytest.raises(ValueError, match="one length"):
            prf_expand(b"k", (b"four", b"three"), length)

    @pytest.mark.parametrize("length", [0, 36])
    def test_an_empty_tuple_is_refused(self, length):
        with pytest.raises(ValueError, match="at least one seed"):
            prf_expand(b"k", (), length)

    def test_the_length_limits_hold_for_a_tuple(self):
        with pytest.raises(ValueError, match="5101"):
            prf_expand(b"k", (b"a", b"b"), 5101)
        with pytest.raises(ValueError):
            prf_expand(b"k", (b"a", b"b"), -1)


# --------------------------------------------------------------------------- #
# (c) The lane kernel against one hash at a time
# --------------------------------------------------------------------------- #

LANE_COUNTS = range(1, 9)
words = st.integers(0, 0xFFFFFFFF)
states = st.tuples(words, words, words, words, words)
#: The words that carry furthest: all ones, the top and bottom bits, zero.
EDGE_WORDS = (0xFFFFFFFF, 0x80000000, 0x00000001, 0x00000000, 0x7FFFFFFF, 0xFFFFFFFE)


def pack(lane_states):
    """Per-lane five-word states as one lane-packed state."""
    return tuple(
        sum(state[word] << (64 * lane) for lane, state in enumerate(lane_states))
        for word in range(5)
    )


def unpack(state, lanes):
    """The inverse of :func:`pack`; nothing may sit between or above the lanes."""
    for word in state:
        assert word >> (64 * lanes) == 0
        assert all((word >> (64 * lane + 32)) & 0xFFFFFFFF == 0 for lane in range(lanes))
    return [tuple((word >> (64 * lane)) & 0xFFFFFFFF for word in state) for lane in range(lanes)]


def lanes_of(element, smallest=1):
    """Lists of 1…8 draws of ``element``, one per lane."""
    return st.lists(element, min_size=smallest, max_size=8)


def rotated(value, amount):
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def message_schedule(block):
    w = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 64, 4)]
    for i in range(16, 80):
        w.append(rotated(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
    return w


def round_term(index, b, c, d):
    """FIPS 180's f_t(b, c, d) + K_t."""
    if index < 20:
        return ((b & c) | (~b & d & 0xFFFFFFFF)) + 0x5A827999
    if index < 40:
        return (b ^ c ^ d) + 0x6ED9EBA1
    if index < 60:
        return ((b & c) | (b & d) | (c & d)) + 0x8F1BBCDC
    return (b ^ c ^ d) + 0xCA62C1D6


def rounds_done(state, w, count):
    """The working variables after rounds 0 … ``count`` - 1, textbook form."""
    a, b, c, d, e = state
    for index in range(count):
        a, b, c, d, e = (
            (rotated(a, 5) + round_term(index, b, c, d) + e + w[index]) & 0xFFFFFFFF,
            a,
            rotated(b, 30),
            c,
            d,
        )
    return a, b, c, d, e


def rounds_undone(state, w, count):
    """The chaining state from which rounds 0 … ``count`` - 1 reach ``state``."""
    a, b, c, d, e = state
    for index in reversed(range(count)):
        a, b, c, d, previous = b, rotated(c, 2), d, e, a
        e = (previous - rotated(a, 5) - round_term(index, b, c, d) - w[index]) & 0xFFFFFFFF
    return a, b, c, d, e


class TestLaneKernel:
    @given(
        lanes_of(st.tuples(states, st.binary(min_size=64, max_size=64))),
        st.integers(0, 70),
    )
    @settings(max_examples=150, deadline=None)
    def test_compress_is_the_scalar_compress_in_every_lane(self, lanes, offset):
        lane_states = [state for state, _ in lanes]
        blocks = [bytes(offset) + block + b"trailing" for _, block in lanes]
        packed = sha1_module._compress(pack(lane_states), blocks, offset)
        assert unpack(packed, len(lanes)) == [
            scalar_compress(state, block, offset) for state, block in zip(lane_states, blocks)
        ]

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    @pytest.mark.parametrize("word", EDGE_WORDS)
    def test_compress_at_the_carry_edges(self, lanes, word):
        """Every lane full of one edge word, then each lane in turn the odd
        one out among all-ones neighbours (whatever a neighbour can spill
        into a lane, all-ones spills most of)."""
        block = word.to_bytes(4, "big") * 16
        uniform = sha1_module._compress(pack([(word,) * 5] * lanes), [block] * lanes, 0)
        assert unpack(uniform, lanes) == [scalar_compress((word,) * 5, block)] * lanes
        for odd in range(lanes):
            lane_states = [(0xFFFFFFFF,) * 5] * lanes
            blocks = [b"\xff" * 64] * lanes
            lane_states[odd], blocks[odd] = (word,) * 5, block
            packed = sha1_module._compress(pack(lane_states), blocks, 0)
            assert unpack(packed, lanes) == [
                scalar_compress(state, each) for state, each in zip(lane_states, blocks)
            ]

    @pytest.mark.parametrize("lanes", [2, 3, 8])
    def test_a_rotation_carry_in_any_round_stays_in_its_lane(self, lanes):
        """The one carry that could cross lanes, forced in each round in turn.

        Round t adds ``rotl5(a)`` to four words before any mask.  Packed,
        ``a >> 27`` leaves the lane above's low 27 bits at the top of this
        lane; were they not cleared, all ones there plus a carry out of the
        sum below would add one to the lane above.  Random inputs meet that
        about once in 2**27 rounds, so it is engineered: every lane's ``a``
        is all ones as round t begins (``rotl5`` is then 2**37 - 1 packed,
        and the round constant alone carries), and the rounds before t are
        run backwards to the chaining state that gets there.
        """
        randomness = DeterministicRNG(lanes)
        for round_index in range(80):
            blocks = [randomness.getrandbits(512).to_bytes(64, "big") for _ in range(lanes)]
            reached = [
                (0xFFFFFFFF,) + tuple(randomness.getrandbits(32) for _ in range(4))
                for _ in range(lanes)
            ]
            starts = [
                rounds_undone(state, message_schedule(block), round_index)
                for state, block in zip(reached, blocks)
            ]
            for start, state, block in zip(starts, reached, blocks):
                assert rounds_done(start, message_schedule(block), round_index) == state
            packed = sha1_module._compress(pack(starts), blocks, 0)
            assert unpack(packed, lanes) == [
                scalar_compress(start, block) for start, block in zip(starts, blocks)
            ], f"a carry crossed lanes in round {round_index}"

    @given(
        lengths.flatmap(
            lambda size: lanes_of(st.tuples(states, st.binary(min_size=size, max_size=size)))
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_finish_is_the_scalar_finish_in_every_lane(self, lanes, absorbed_blocks):
        lane_states = [state for state, _ in lanes]
        tails = [tail for _, tail in lanes]
        total = 64 * absorbed_blocks + len(tails[0])
        assert sha1_module._finish(pack(lane_states), tails, total) == [
            scalar_finish(state, tail, total) for state, tail in zip(lane_states, tails)
        ]

    @given(lengths.flatmap(lambda size: lanes_of(st.binary(min_size=size, max_size=size))))
    @settings(max_examples=150, deadline=None)
    def test_whole_messages_match_hashlib_in_every_lane(self, batch):
        initial = sha1_module._widen(sha1_module._INITIAL_STATE, len(batch))
        assert initial == pack([INITIAL_STATE] * len(batch))
        digests = sha1_module._finish(initial, batch, len(batch[0]))
        assert digests == [hashlib.sha1(message).digest() for message in batch]
        assert digests == [sha1(message) for message in batch]

    @given(
        lengths.flatmap(
            lambda size: lanes_of(st.binary(min_size=size, max_size=size), smallest=2)
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_lane_depends_on_its_own_input_only(self, batch, data):
        lane = data.draw(st.integers(0, len(batch) - 1))
        other = data.draw(st.binary(min_size=len(batch[0]), max_size=len(batch[0])))
        initial = sha1_module._widen(sha1_module._INITIAL_STATE, len(batch))
        before = sha1_module._finish(initial, batch, len(batch[0]))
        changed = batch[:lane] + [other] + batch[lane + 1 :]
        after = sha1_module._finish(initial, changed, len(batch[0]))
        assert after[:lane] == before[:lane] and after[lane + 1 :] == before[lane + 1 :]
        assert (after[lane] == before[lane]) == (other == batch[lane])
        assert after[lane] == hashlib.sha1(other).digest()


#: FIPS 180 appendix A/B and the two-block "abc…" message's neighbours.
FIPS_180_VECTORS = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
]
#: RFC 2202 section 3, test cases 1, 2, 3 and 6 (a key longer than a block).
RFC_2202_VECTORS = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50, "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (
        b"\xaa" * 80,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "aa4ae5e15272d00e95705637ce8a3b55ed402112",
    ),
]


def filler(size, lane):
    """A message of ``size`` bytes that is none of the vectors'."""
    return bytes((11 * lane + 7 * i + 1) % 251 for i in range(size))


class TestVectorsInEveryLane:
    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    @pytest.mark.parametrize("message, digest", FIPS_180_VECTORS)
    def test_fips_180(self, lanes, message, digest):
        initial = sha1_module._widen(sha1_module._INITIAL_STATE, lanes)
        for position in range(lanes):
            batch = [filler(len(message), lane) for lane in range(lanes)]
            batch[position] = message
            digests = sha1_module._finish(initial, batch, len(message))
            assert digests[position].hex() == digest
            assert digests == [hashlib.sha1(each).digest() for each in batch]

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    @pytest.mark.parametrize("key, message, tag", RFC_2202_VECTORS)
    def test_rfc_2202(self, lanes, key, message, tag):
        keyed = HmacSha1(key)
        assert keyed.digest(message).hex() == tag
        for position in range(lanes):
            batch = [filler(len(message), lane) for lane in range(lanes)]
            batch[position] = message
            tags = keyed.digests(batch)
            assert tags[position].hex() == tag
            assert tags == [stdlib_hmac.new(key, each, hashlib.sha1).digest() for each in batch]

    def test_lock_step_hmac_refuses_unequal_or_no_messages(self):
        keyed = HmacSha1(b"key")
        with pytest.raises(ValueError):
            keyed.digests([b"four", b"three"])
        with pytest.raises(ValueError):
            keyed.digests([])


# --------------------------------------------------------------------------- #
# (d) What the callers pay
# --------------------------------------------------------------------------- #


@pytest.fixture
def compress_calls(monkeypatch):
    """The lane widths ``_compress`` is called with, in call order."""
    widths = []
    compress = sha1_module._compress

    def counted(state, tails, offset):
        widths.append(len(tails))
        return compress(state, tails, offset)

    monkeypatch.setattr(sha1_module, "_compress", counted)
    return widths


class TestCompressCalls:
    @pytest.mark.parametrize("pools, lanes", [("synchronised", 2), ("diverged", 4)])
    def test_a_negotiation_is_ten_compressions(self, compress_calls, pools, lanes):
        """One key-pad call, 3 + 1 for T1, 4 + 1 for T2 — all four SAs' KEYMAT."""
        if pools == "synchronised":
            alice_pool, bob_pool = synced_pools()
        else:
            alice_pool, _ = synced_pools(seed=60)
            _, bob_pool = synced_pools(seed=61)
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        del compress_calls[:]
        alice.negotiate_phase2(bob, AES_POLICY)
        assert len(compress_calls) <= 10
        assert compress_calls == [2] + [lanes] * 9

    def test_an_sa_absorbs_its_key_for_the_first_packet_only(self, compress_calls):
        sender_sa, receiver_sa = (
            SecurityAssociation(
                spi=0x300,
                source_gateway="a",
                destination_gateway="b",
                cipher_suite=CipherSuite.AES_QKD_RESEED,
                encryption_key=bytes(range(16)),
                authentication_key=bytes(range(20)),
            )
            for _ in range(2)
        )
        assert compress_calls == []  # building an SA hashes nothing
        esp = EspProcessor(DeterministicRNG(12))
        packet = IPPacket("10.1.0.1", "10.2.0.1", b"data")
        first = esp.encapsulate(packet, sender_sa, "1.1.1.1", "2.2.2.2")
        first_cost = len(compress_calls)
        second = esp.encapsulate(packet, sender_sa, "1.1.1.1", "2.2.2.2")
        assert len(first.ciphertext) == len(second.ciphertext)
        assert len(compress_calls) - first_cost == first_cost - 1
        assert compress_calls.count(2) == 1  # the one two-lane call is the key's pads
        esp.decapsulate(first, receiver_sa)
        esp.decapsulate(second, receiver_sa)
        assert compress_calls.count(2) == 2  # the receiver's, once
