"""Tests for block-cipher modes, SHA-1 / HMAC, the one-time pad, and Wegman-Carter."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.otp import OneTimePad, PadExhaustedError
from repro.crypto.sha1 import HmacSha1, hmac_sha1, prf_expand, sha1
from repro.core.keypool import KeyBlock, KeyPool, KeyPoolExhaustedError
from repro.crypto.wegman_carter import AuthenticationError, WegmanCarterAuthenticator
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.oracles.slow_sha1 import prf_plus_oracle, slow_sha1

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
IV = bytes(range(16))


class TestPadding:
    def test_pad_length_always_added(self):
        assert len(pkcs7_pad(b"")) == 16
        assert len(pkcs7_pad(bytes(16))) == 32

    def test_unpad_roundtrip(self):
        for size in (0, 1, 15, 16, 17, 100):
            data = bytes(range(256))[:size]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_unpad_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(bytes(16))
        with pytest.raises(ValueError):
            pkcs7_unpad(b"")
        with pytest.raises(ValueError):
            pkcs7_unpad(b"\x01" * 15 + b"\x03")


class TestModes:
    def test_cbc_roundtrip(self):
        cipher = AES(KEY)
        message = b"x" * 100
        assert cbc_decrypt(cipher, cbc_encrypt(cipher, message, IV), IV) == message

    def test_cbc_iv_matters(self):
        cipher = AES(KEY)
        message = b"same plaintext"
        other_iv = bytes(reversed(IV))
        assert cbc_encrypt(cipher, message, IV) != cbc_encrypt(cipher, message, other_iv)

    def test_cbc_equal_blocks_encrypt_differently(self):
        cipher = AES(KEY)
        message = bytes(16) * 2
        ciphertext = cbc_encrypt(cipher, message, IV)
        assert ciphertext[:16] != ciphertext[16:32]

    def test_cbc_validates_iv_and_ciphertext(self):
        cipher = AES(KEY)
        with pytest.raises(ValueError):
            cbc_encrypt(cipher, b"data", b"short-iv")
        with pytest.raises(ValueError):
            cbc_decrypt(cipher, b"not-a-block", IV)

    @given(st.binary(max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_cbc_roundtrip_property(self, message):
        cipher = AES(KEY)
        assert cbc_decrypt(cipher, cbc_encrypt(cipher, message, IV), IV) == message


#: Message lengths on both sides of every SHA-1 padding decision: empty; the
#: last length whose padding fits one block (55) and the first that spills
#: (56); one short of, exactly, and one past a block; and the same three
#: cases one block later.
PADDING_BOUNDARIES = (0, 55, 56, 63, 64, 65, 119, 120, 128)
#: HMAC key lengths: empty, SKEYID-sized, exactly one block, the first that
#: is hashed down (65), and well past it.
KEY_LENGTHS = (0, 20, 64, 65, 200)

_lengths = st.one_of(st.sampled_from(PADDING_BOUNDARIES), st.integers(0, 300))
messages = _lengths.flatmap(lambda n: st.binary(min_size=n, max_size=n))
keys = st.one_of(st.sampled_from(KEY_LENGTHS), st.integers(0, 100)).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)


def stdlib_hmac_sha1(key: bytes, message: bytes) -> bytes:
    return stdlib_hmac.new(key, message, hashlib.sha1).digest()


class TestSha1:
    def test_empty_and_known_vectors(self):
        assert sha1(b"").hex() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        assert sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"

    def test_against_hashlib(self):
        for size in sorted({1, 200, 1000, *PADDING_BOUNDARIES}):
            message = bytes(range(256)) * 4
            message = message[:size]
            assert sha1(message) == hashlib.sha1(message).digest() == slow_sha1(message)

    def test_hmac_rfc2202_vectors(self):
        assert hmac_sha1(b"\x0b" * 20, b"Hi There").hex() == (
            "b617318655057264e28bc0b6fb378c8ef146be00"
        )
        assert hmac_sha1(b"Jefe", b"what do ya want for nothing?").hex() == (
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        )

    def test_hmac_long_key_against_stdlib(self):
        key = bytes(range(100))
        message = b"key longer than the block size"
        assert hmac_sha1(key, message) == stdlib_hmac.new(key, message, hashlib.sha1).digest()

    def test_prf_expand_lengths(self):
        assert len(prf_expand(b"k", b"seed", 0)) == 0
        assert len(prf_expand(b"k", b"seed", 17)) == 17
        assert len(prf_expand(b"k", b"seed", 100)) == 100

    def test_prf_expand_deterministic_and_seed_sensitive(self):
        assert prf_expand(b"k", b"a", 32) == prf_expand(b"k", b"a", 32)
        assert prf_expand(b"k", b"a", 32) != prf_expand(b"k", b"b", 32)
        assert prf_expand(b"k1", b"a", 32) != prf_expand(b"k2", b"a", 32)

    @given(messages)
    @settings(max_examples=60, deadline=None)
    def test_sha1_matches_hashlib_property(self, message):
        assert sha1(message) == hashlib.sha1(message).digest() == slow_sha1(message)

    def test_prf_expand_stops_at_the_one_octet_counter(self):
        # 255 blocks of 20 bytes is all prf+ can number; one byte more used
        # to wrap the counter to 0 and carry on.
        assert prf_expand(b"k", b"s", 5100) == prf_plus_oracle(b"k", b"s", 5100)
        with pytest.raises(ValueError, match="5101"):
            prf_expand(b"k", b"s", 5101)
        with pytest.raises(ValueError):
            prf_expand(b"k", b"s", -1)


class TestHmacSha1Differential:
    """The keyed HMAC state and prf+ against the standard library's ``hmac``
    and the prf+ oracle in ``tests/oracles`` (``sha1`` itself is held to
    ``hashlib`` and the slow definition in :class:`TestSha1`)."""

    @pytest.mark.parametrize("key_length", KEY_LENGTHS)
    @pytest.mark.parametrize("length", PADDING_BOUNDARIES)
    def test_hmac_at_every_key_and_padding_boundary(self, key_length, length):
        key = bytes((7 * i + 1) % 256 for i in range(key_length))
        message = bytes((3 * i + length) % 256 for i in range(length))
        expected = stdlib_hmac_sha1(key, message)
        assert HmacSha1(key).digest(message) == expected
        assert hmac_sha1(key, message) == expected

    @given(keys, messages)
    @settings(max_examples=60, deadline=None)
    def test_hmac_matches_stdlib(self, key, message):
        expected = stdlib_hmac_sha1(key, message)
        assert HmacSha1(key).digest(message) == expected
        assert hmac_sha1(key, message) == expected

    @given(keys, st.lists(messages, min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_one_keyed_object_digests_many_messages(self, key, batch):
        keyed = HmacSha1(key)
        for message in batch + batch[::-1]:
            assert keyed.digest(message) == HmacSha1(key).digest(message)
            assert keyed.digest(message) == stdlib_hmac_sha1(key, message)

    @given(keys, messages, st.integers(0, 130))
    @settings(max_examples=40, deadline=None)
    def test_prf_expand_matches_the_prf_plus_oracle(self, key, seed, length):
        assert prf_expand(key, seed, length) == prf_plus_oracle(key, seed, length)


class TestOneTimePad:
    def test_roundtrip_with_mirrored_pools(self):
        material = bytes(range(256))
        sender = OneTimePad(material)
        receiver = OneTimePad(material)
        first = sender.encrypt(b"attack at dawn")
        second = sender.encrypt(b"no, wait")
        assert receiver.decrypt(first) == b"attack at dawn"
        assert receiver.decrypt(second) == b"no, wait"

    def test_ciphertext_differs_from_plaintext(self):
        pad = OneTimePad(bytes(range(1, 200)))
        assert pad.encrypt(b"secret") != b"secret"

    def test_consumption_accounting(self):
        pad = OneTimePad(bytes(100))
        pad.encrypt(b"12345")
        assert pad.available_bytes == 95

    def test_exhaustion(self):
        pad = OneTimePad(bytes(4))
        with pytest.raises(PadExhaustedError):
            pad.encrypt(b"too long for the pad")
        # Nothing consumed on failure.
        assert pad.available_bytes == 4

    def test_replenishment(self):
        pad = OneTimePad()
        pad.add_key_material(b"\xaa" * 10)
        assert pad.available_bytes == 10
        pad.add_key_material(b"\xff" * 2)
        assert pad.available_bytes == 12

    def test_peek_does_not_consume(self):
        pad = OneTimePad(bytes(range(10)))
        assert pad.peek(3) == bytes([0, 1, 2])
        assert pad.available_bytes == 10
        with pytest.raises(PadExhaustedError):
            pad.peek(11)


def shared_pool(bits):
    """An authentication pool holding ``bits`` pre-shared, as a channel builds it."""
    return KeyPool("authentication", [KeyBlock(bits, block_id=0)])


class TestWegmanCarter:
    def _paired(self, bits=4096):
        rng = DeterministicRNG(77)
        shared = BitString.random(bits, rng)
        return (
            WegmanCarterAuthenticator(shared_pool(shared)),
            WegmanCarterAuthenticator(shared_pool(shared)),
        )

    def test_tag_verify_roundtrip(self):
        alice, bob = self._paired()
        message = b"sift message covering frame 7"
        bob.verify(message, alice.tag(message))

    def test_multiple_messages_stay_in_sync(self):
        alice, bob = self._paired()
        for index in range(10):
            message = f"protocol message {index}".encode()
            bob.verify(message, alice.tag(message))

    def test_tampered_message_rejected(self):
        alice, bob = self._paired()
        tag = alice.tag(b"parity list: 0 1 1 0")
        with pytest.raises(AuthenticationError):
            bob.verify(b"parity list: 0 1 1 1", tag)

    def test_forged_tag_rejected(self):
        alice, bob = self._paired()
        tag = alice.tag(b"legitimate")
        forged = tag ^ BitString.from_int(1 << (len(tag) - 1), len(tag))
        with pytest.raises(AuthenticationError):
            bob.verify(b"legitimate", forged)

    def test_eve_without_pool_cannot_forge(self):
        alice, bob = self._paired()
        rng = DeterministicRNG(999)
        eve = WegmanCarterAuthenticator(shared_pool(BitString.random(4096, rng)))
        message = b"impersonation attempt"
        eve_tag = eve.tag(message)
        with pytest.raises(AuthenticationError):
            bob.verify(message, eve_tag)

    def test_tag_and_block_are_whole_bytes(self):
        """The chained kernel hashes whole bytes, and each block carries the
        previous digest plus at least one byte of message."""
        tag_bits = WegmanCarterAuthenticator.TAG_BITS
        block_bits = WegmanCarterAuthenticator.BLOCK_BITS
        assert tag_bits > 0 and tag_bits % 8 == 0 and block_bits % 8 == 0
        assert block_bits - tag_bits >= 8

    def test_construction_draws_one_hash_seed(self):
        pool = shared_pool(BitString.random(4096, DeterministicRNG(1)))
        alice = WegmanCarterAuthenticator(pool)
        seed_bits = (
            WegmanCarterAuthenticator.BLOCK_BITS + WegmanCarterAuthenticator.TAG_BITS - 1
        )
        assert pool.bits_consumed == seed_bits
        alice.tag(b"m")
        assert pool.bits_consumed == seed_bits + WegmanCarterAuthenticator.TAG_BITS

    def test_a_pool_too_small_for_the_hash_seed_is_refused(self):
        seed_bits = (
            WegmanCarterAuthenticator.BLOCK_BITS + WegmanCarterAuthenticator.TAG_BITS - 1
        )
        pool = shared_pool(BitString.random(seed_bits - 1, DeterministicRNG(1)))
        with pytest.raises(KeyPoolExhaustedError):
            WegmanCarterAuthenticator(pool)
        assert pool.bits_consumed == 0

    def test_tags_consume_pool_bits(self):
        alice, _ = self._paired()
        before = alice.pool.available_bits
        alice.tag(b"m")
        assert alice.pool.available_bits == before - WegmanCarterAuthenticator.TAG_BITS

    def test_pool_exhaustion_raises(self):
        rng = DeterministicRNG(5)
        shared = BitString.random(400, rng)
        alice = WegmanCarterAuthenticator(shared_pool(shared))
        with pytest.raises(KeyPoolExhaustedError):
            for _ in range(100):
                alice.tag(b"spam until the pool dies")

    def test_replenishment_extends_life(self):
        rng = DeterministicRNG(6)
        shared = BitString.random(512, rng)
        pool = shared_pool(shared)
        alice = WegmanCarterAuthenticator(pool)
        for _ in range(4):
            alice.tag(b"message")
        pool.add_bits(BitString.random(256, rng))
        for _ in range(4):
            alice.tag(b"message")
        assert pool.bits_added == 256

    def test_length_extension_matters(self):
        """Messages that differ only by trailing zero bytes must tag differently."""
        alice1, bob1 = self._paired()
        tag = alice1.tag(b"abc")
        with pytest.raises(AuthenticationError):
            bob1.verify(b"abc\x00", tag)
