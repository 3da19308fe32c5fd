"""Tests for privacy amplification, the key pool, and transcript authentication."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.authentication import AuthenticatedChannel
from repro.core.keypool import KeyBlock, KeyPool, KeyPoolExhaustedError
from repro.core.messages import PrivacyAmplificationMessage, PublicChannelLog, SiftMessage
from repro.core.privacy import PrivacyAmplification
from repro.crypto.wegman_carter import AuthenticationError
from repro.kms.store import KeyStore
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


class TestPrivacyAmplification:
    def test_output_length_exact(self):
        rng = DeterministicRNG(1)
        pa = PrivacyAmplification(DeterministicRNG(2))
        key = BitString.random(500, rng)
        result = pa.amplify(key, 200)
        assert len(result.distilled_key) == 200
        assert result.output_bits == 200
        assert result.input_bits == 500

    def test_zero_output(self):
        pa = PrivacyAmplification(DeterministicRNG(3))
        result = pa.amplify(BitString.random(100, DeterministicRNG(1)), 0)
        assert len(result.distilled_key) == 0

    def test_cannot_expand(self):
        pa = PrivacyAmplification(DeterministicRNG(4))
        with pytest.raises(ValueError):
            pa.amplify(BitString.zeros(10), 11)
        with pytest.raises(ValueError):
            pa.amplify(BitString.zeros(10), -1)

    def test_both_sides_agree(self):
        """Applying the announced messages to an identical key gives identical output."""
        rng = DeterministicRNG(5)
        pa = PrivacyAmplification(DeterministicRNG(6))
        key = BitString.random(700, rng)
        result = pa.amplify(key, 300)
        # Bob holds the same corrected key and replays Alice's announced messages.
        outputs = []
        for block, message in zip(key.chunks(pa.max_block_bits), result.messages):
            outputs.append(PrivacyAmplification.apply_message(block, message))
        bob_key = BitString().concat(*outputs)
        assert bob_key == result.distilled_key

    def test_different_keys_give_different_output(self):
        pa = PrivacyAmplification(DeterministicRNG(7))
        key = BitString.random(256, DeterministicRNG(8))
        other = key ^ BitString.from_int(1 << (len(key) - 1 - 17), len(key))
        result = pa.amplify(key, 128)
        replayed = PrivacyAmplification.apply_message(other, result.messages[0])
        assert replayed != result.distilled_key[: len(replayed)]

    def test_messages_carry_the_four_parameters(self):
        """'the number of bits m ..., the (sparse) primitive polynomial ..., a multiplier
        ..., and an m-bit polynomial to add'."""
        pa = PrivacyAmplification(DeterministicRNG(9))
        message = pa.build_message(96, 40)
        assert isinstance(message, PrivacyAmplificationMessage)
        assert message.output_bits == 40
        assert message.field_degree == 96
        assert len(message.polynomial_exponents) >= 1
        assert 0 < message.multiplier < 2**96
        assert 0 <= message.addend < 2**40

    def test_field_degree_rounded_to_multiple_of_32(self):
        pa = PrivacyAmplification(DeterministicRNG(10))
        assert pa.build_message(100, 50).field_degree == 128
        assert pa.build_message(64, 10).field_degree == 64

    def test_long_keys_split_into_blocks(self):
        pa = PrivacyAmplification(DeterministicRNG(11), max_block_bits=256)
        key = BitString.random(1000, DeterministicRNG(12))
        result = pa.amplify(key, 400)
        assert len(result.messages) == 4
        assert len(result.distilled_key) == 400

    def test_log_records_messages(self):
        pa = PrivacyAmplification(DeterministicRNG(15))
        log = PublicChannelLog()
        pa.amplify(BitString.random(128, DeterministicRNG(16)), 64, log=log)
        assert len(log) >= 1

    @given(st.integers(min_value=1, max_value=600), st.integers(min_value=0, max_value=600))
    @settings(max_examples=25, deadline=None)
    def test_output_length_property(self, input_bits, output_bits):
        output_bits = min(output_bits, input_bits)
        pa = PrivacyAmplification(DeterministicRNG(17))
        key = BitString.random(input_bits, DeterministicRNG(18))
        assert len(pa.amplify(key, output_bits).distilled_key) == output_bits


class TestKeyPool:
    def test_fifo_draw(self):
        pool = KeyPool()
        pool.add_bits(BitString([1, 1, 0, 0]))
        pool.add_bits(BitString([1, 0]))
        assert pool.draw_bits(3) == BitString([1, 1, 0])
        assert pool.draw_bits(3) == BitString([0, 1, 0])
        assert pool.available_bits == 0

    def test_exhaustion(self):
        pool = KeyPool()
        pool.add_bits(BitString.ones(8))
        with pytest.raises(KeyPoolExhaustedError):
            pool.draw_bits(9)
        assert pool.available_bits == 8  # nothing consumed on failure

    def test_accounting(self):
        pool = KeyPool()
        pool.add_bits(BitString.ones(100))
        pool.draw_bits(60)
        assert pool.bits_added == 100
        assert pool.bits_consumed == 60
        assert pool.available_bits == 40

    def test_capacity_limit(self):
        pool = KeyPool(capacity_bits=16)
        pool.add_bits(BitString.ones(16))
        with pytest.raises(ValueError):
            pool.add_bits(BitString.ones(1))

    def test_block_metadata_preserved(self):
        pool = KeyPool()
        pool.add_block(KeyBlock(bits=BitString.ones(32), block_id=7, qber=0.06, sifted_bits=300))
        assert pool.blocks[0].qber == 0.06
        assert len(pool.blocks[0]) == 32

    def test_paired_pools_stay_identical(self):
        rng = DeterministicRNG(19)
        alice, bob = KeyPool(name="a"), KeyPool(name="b")
        for index in range(5):
            bits = BitString.random(64, rng)
            alice.add_bits(bits, block_id=index)
            bob.add_bits(bits, block_id=index)
        for draw in (10, 30, 64, 100):
            assert alice.draw_bits(draw) == bob.draw_bits(draw)

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            KeyPool().draw_bits(-1)

    POOLS = {
        "empty": lambda: KeyPool(),
        "built_with_blocks": lambda: KeyPool(
            blocks=[
                KeyBlock(BitString.ones(24), 0),
                KeyBlock(BitString.zeros(40), 1, created_at=1.0),
            ],
            _head_offset=5,
        ),
        "capped": lambda: KeyPool(capacity_bits=128),
        "store_pool": lambda: KeyStore(("a", "b")).local_pool,
    }
    OPERATIONS = {
        "add_block": lambda pool, n, step: pool.add_block(
            KeyBlock(BitString.ones(n % 70), step, created_at=float(step))
        ),
        "draw_bits": lambda pool, n, step: pool.draw_bits(n),
        "drop_head_blocks": lambda pool, n, step: pool.drop_head_blocks(n % 4),
    }

    @pytest.mark.parametrize("build", sorted(POOLS))
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(sorted(OPERATIONS)), st.integers(0, 150)), max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_level_counter_equals_the_block_sum_after_every_operation(self, build, operations):
        pool = self.POOLS[build]()

        def ledger():
            return pool.bits_added - pool.bits_consumed - pool.bits_expired

        def block_sum():
            return sum(len(block) for block in pool.blocks) - pool._head_offset

        assert pool.available_bits == block_sum()
        for step, (name, n) in enumerate(operations):
            level, booked = pool.available_bits, ledger()
            try:
                self.OPERATIONS[name](pool, n, step)
            except (KeyPoolExhaustedError, ValueError):
                assert pool.available_bits == level  # a refusal moves nothing
            assert pool.available_bits == block_sum()
            assert pool.available_bits - level == ledger() - booked


def tag_log(channel, log):
    """Tag every message in ``log``, as the engine tags a block's transcript."""
    return channel.tag_payload(log.transcript_bytes(), covered_messages=len(log))


def verify_log(channel, log, tag):
    channel.verify_payload(log.transcript_bytes(), tag)


class TestAuthenticatedChannel:
    def _paired(self, bits=4096):
        secret = BitString.random(bits, DeterministicRNG(20))
        return AuthenticatedChannel.paired(secret)

    def _transcript(self):
        log = PublicChannelLog()
        log.record(SiftMessage(frame_id=1, n_slots=100, detection_runs=[50, 1, 49], detected_bases=[1]))
        return log

    def test_tag_and_verify(self):
        alice, bob = self._paired()
        log = self._transcript()
        tag = tag_log(alice, log)
        verify_log(bob, log, tag)
        assert bob.statistics.verification_failures == 0

    def test_tampered_transcript_detected(self):
        alice, bob = self._paired()
        log = self._transcript()
        tag = tag_log(alice, log)
        log.messages[0].detected_bases[0] ^= 1
        with pytest.raises(AuthenticationError):
            verify_log(bob, log, tag)
        assert bob.statistics.verification_failures == 1

    def test_eve_cannot_impersonate(self):
        alice, bob = self._paired()
        eve_secret = BitString.random(4096, DeterministicRNG(999))
        eve = AuthenticatedChannel(eve_secret)
        log = self._transcript()
        with pytest.raises(AuthenticationError):
            verify_log(bob, log, tag_log(eve, log))

    def test_key_consumption_and_replenishment(self):
        alice, bob = self._paired()
        log = self._transcript()
        start = alice.available_secret_bits
        tag = tag_log(alice, log)
        verify_log(bob, log, tag)
        assert alice.available_secret_bits == start - alice.tag_bits
        alice.replenish(BitString.ones(256))
        assert alice.statistics.secret_bits_replenished == 256
        assert alice.available_secret_bits == start - alice.tag_bits + 256

    def test_statistics_track_batches(self):
        alice, bob = self._paired()
        for _ in range(3):
            log = self._transcript()
            verify_log(bob, log, tag_log(alice, log))
        assert alice.statistics.batches_tagged == 3
        assert bob.statistics.batches_verified == 3
