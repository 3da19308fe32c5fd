"""SHA-1 across lanes: the scalar reference, prf+ seed by seed, and the callers.

``tests/oracles/scalar_sha1.py`` is one hash at a time — five 32-bit words,
one block — and section (a) holds it to ``hashlib`` from arbitrary chaining
states before anything leans on it.  Section (b) holds ``prf_expand`` to the
stdlib prf+ oracle one seed at a time at the lengths IKE uses and the edges
around them.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.sha1 import prf_expand
from tests.oracles.scalar_sha1 import (
    INITIAL_STATE,
    scalar_compress,
    scalar_finish,
    scalar_sha1,
)
from tests.oracles.slow_sha1 import prf_plus_oracle, slow_sha1

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
