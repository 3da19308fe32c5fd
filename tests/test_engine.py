"""Tests for the full QKD protocol engine (the pipeline of Fig 9)."""

import math

import numpy as np
import pytest

from repro.core.engine import EngineParameters, QKDProtocolEngine
from repro.crypto.wegman_carter import WegmanCarterAuthenticator
from repro.core.sifting import SiftingProtocol
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.draws import sample
from tests.oracles.scalar_cascade import messages_of_type


def noisy_pair(n: int, error_rate: float, seed: int = 1):
    rng = DeterministicRNG(seed)
    alice = BitString.random(n, rng)
    errors = sample(rng, range(n), int(round(error_rate * n)))
    bob = alice.to_list()
    for index in errors:
        bob[index] ^= 1
    return alice, BitString(bob)


def process_frame(engine, frame, **accounting):
    """Sift one frame and hand it to the engine, as the batch loop does per lane."""
    sift = SiftingProtocol(frame_id=engine.allocate_frame_id()).sift(frame)
    return engine.process_sifted(sift, frame.n_slots, **accounting)


class TestEngineParameters:
    def test_defaults(self):
        params = EngineParameters()
        assert params.defense == "bennett"
        assert params.confidence_sigmas == 5.0
        assert params.block_size_bits == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineParameters(defense="other")
        with pytest.raises(ValueError):
            EngineParameters(block_size_bits=0)
        with pytest.raises(ValueError):
            EngineParameters(abort_qber=0.0)

    @pytest.mark.parametrize("size", [0, -1, True, 2048.0, 2.5, "2048", None])
    def test_block_size_must_be_a_positive_integer(self, size):
        # A float or a bool used to build, then fail mid-run: 2048.0 and 2.5
        # as slice indices, True as 1-bit blocks that exhaust the auth pool.
        with pytest.raises(ValueError, match="block_size_bits"):
            EngineParameters(block_size_bits=size)

    def test_numpy_integer_block_size_is_accepted(self):
        params = EngineParameters(block_size_bits=np.int64(1024))
        assert params.block_size_bits == 1024 and type(params.block_size_bits) is int

    @pytest.mark.parametrize("r", [-1, -200, 0.5, True, math.nan])
    def test_non_randomness_must_be_a_non_negative_integer(self, r):
        # A negative r added key past the entropy bound (805 bits instead
        # of 371 on a paper link over 3 M slots at r = -200).
        with pytest.raises(ValueError, match="non_randomness_bits"):
            EngineParameters(non_randomness_bits=r)

    def test_non_randomness_shortens_the_key(self):
        alice, bob = noisy_pair(2048, 0.05, seed=3)
        distillable = []
        for r in (0, np.int64(100)):
            engine = QKDProtocolEngine(EngineParameters(non_randomness_bits=r), DeterministicRNG(2))
            outcome = engine.distill_block(alice, bob, transmitted_pulses=500_000)
            distillable.append(outcome.entropy.distillable_bits)
        assert distillable[1] == distillable[0] - 100

    @pytest.mark.parametrize("sigmas", [-1.0, math.nan, math.inf])
    def test_confidence_must_be_finite_and_non_negative(self, sigmas):
        # NaN used to build, then crash mid-block converting NaN to an int.
        with pytest.raises(ValueError, match="confidence_sigmas"):
            EngineParameters(confidence_sigmas=sigmas)

    def test_make_defense(self):
        assert EngineParameters(defense="bennett").make_defense().name == "bennett"
        assert EngineParameters(defense="slutsky").make_defense().name == "slutsky"


class TestDistillBlock:
    def test_clean_block_distills_key(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(2))
        alice, bob = noisy_pair(2048, 0.05, seed=3)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=500_000)
        assert not outcome.aborted
        assert outcome.authenticated
        assert outcome.distilled_bits > 0
        assert outcome.cascade.matches_reference
        assert 0 < outcome.distilled_bits / outcome.sifted_bits < 1

    def test_both_pools_receive_identical_key(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(4))
        alice, bob = noisy_pair(2048, 0.06, seed=5)
        engine.distill_block(alice, bob, transmitted_pulses=500_000)
        assert engine.keys_match
        n = engine.alice_pool.available_bits
        assert n > 0
        assert engine.alice_pool.draw_bits(n) == engine.bob_pool.draw_bits(n)

    def test_pool_blocks_are_independent_copies(self):
        """The endpoints' KeyBlocks must never share a BitString object."""
        engine = QKDProtocolEngine(rng=DeterministicRNG(4))
        alice, bob = noisy_pair(2048, 0.06, seed=5)
        engine.distill_block(alice, bob, transmitted_pulses=500_000)
        for alice_block, bob_block in zip(engine.alice_pool.blocks, engine.bob_pool.blocks):
            assert alice_block.bits == bob_block.bits
            assert alice_block.bits is not bob_block.bits

    def test_high_qber_aborts(self):
        """QBER above the alarm threshold is treated as eavesdropping."""
        engine = QKDProtocolEngine(rng=DeterministicRNG(6))
        alice, bob = noisy_pair(1024, 0.30, seed=7)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=100_000)
        assert outcome.aborted
        assert "eavesdropping" in outcome.abort_reason
        assert outcome.distilled_bits == 0
        assert engine.statistics.blocks_aborted == 1
        assert engine.alice_pool.available_bits == 0

    def test_slutsky_defense_more_conservative(self):
        alice, bob = noisy_pair(3072, 0.05, seed=8)
        bennett_engine = QKDProtocolEngine(EngineParameters(defense="bennett"), DeterministicRNG(9))
        slutsky_engine = QKDProtocolEngine(EngineParameters(defense="slutsky"), DeterministicRNG(9))
        b = bennett_engine.distill_block(alice, bob, transmitted_pulses=800_000)
        s = slutsky_engine.distill_block(alice, bob, transmitted_pulses=800_000)
        assert s.distilled_bits <= b.distilled_bits

    def test_disclosed_parities_charged(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(10))
        alice, bob = noisy_pair(2048, 0.05, seed=11)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=400_000)
        assert outcome.entropy.inputs.disclosed_parities == outcome.cascade.disclosed_parities
        # Distilled size is at most sifted - disclosed - defense.
        assert outcome.distilled_bits < 2048 - outcome.cascade.disclosed_parities

    def test_more_noise_less_key(self):
        quiet_alice, quiet_bob = noisy_pair(2048, 0.03, seed=12)
        noisy_alice, noisy_bob = noisy_pair(2048, 0.09, seed=13)
        engine_a = QKDProtocolEngine(rng=DeterministicRNG(14))
        engine_b = QKDProtocolEngine(rng=DeterministicRNG(14))
        quiet = engine_a.distill_block(quiet_alice, quiet_bob, transmitted_pulses=400_000)
        noisy = engine_b.distill_block(noisy_alice, noisy_bob, transmitted_pulses=400_000)
        assert noisy.distilled_bits < quiet.distilled_bits

    def test_auth_pool_replenished(self):
        engine = QKDProtocolEngine(EngineParameters(), DeterministicRNG(15))
        start = engine.alice_auth.pool.available_bits
        alice, bob = noisy_pair(2048, 0.05, seed=16)
        engine.distill_block(alice, bob, transmitted_pulses=400_000)
        # Consumed 2 x 32 bits for tagging, gained 128 back.
        assert engine.alice_auth.pool.available_bits == start - 64 + 128

    def test_statistics_accumulate(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(17))
        for seed in (20, 21):
            alice, bob = noisy_pair(1024, 0.05, seed=seed)
            engine.distill_block(alice, bob, transmitted_pulses=200_000)
        stats = engine.statistics
        assert stats.blocks_distilled + stats.blocks_aborted == 2
        assert stats.disclosed_parities > 0

    def test_transcript_attached(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(18))
        alice, bob = noisy_pair(1024, 0.04, seed=19)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=200_000)
        assert outcome.transcript is not None
        assert len(outcome.transcript) > 0


def sifted_blocks(rates, seed=100):
    """One 2 048-bit (alice, bob) pair per error rate."""
    return [noisy_pair(2048, rate, seed=seed + index) for index, rate in enumerate(rates)]


def distill_all(engine, blocks):
    """Distil ``blocks`` in order, 500 000 pulses each, one call per block."""
    return [engine.distill_block(alice, bob, 500_000) for alice, bob in blocks]


class TestBlockStream:
    """Blocks run in-line, one after another, on the engine's one stream."""

    def test_alarmed_block_inside_a_run_aborts_alone(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(7))
        outcomes = distill_all(engine, sifted_blocks((0.06, 0.30, 0.06)))
        assert [o.aborted for o in outcomes] == [False, True, False]
        assert "exceeds abort threshold" in outcomes[1].abort_reason
        assert (engine.statistics.blocks_distilled, engine.statistics.blocks_aborted) == (2, 1)
        assert engine.keys_match

    def test_alarmed_block_spends_no_compute_but_one_tag(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(7))
        start = engine.alice_auth.pool.available_bits
        [outcome] = distill_all(engine, sifted_blocks((0.30,), seed=556))
        assert outcome.aborted and "exceeds abort threshold" in outcome.abort_reason
        assert outcome.cascade is None and outcome.entropy is None and outcome.privacy is None
        assert len(outcome.transcript) == 0
        tag_bits = WegmanCarterAuthenticator.TAG_BITS
        assert engine.alice_auth.pool.available_bits == start - tag_bits
        assert engine.bob_auth.pool.available_bits == start - tag_bits

    def test_stages_run_for_every_block(self, record_stages):
        engine = QKDProtocolEngine(rng=DeterministicRNG(7))
        ran = record_stages(engine)
        distill_all(engine, sifted_blocks((0.30, 0.06, 0.06), seed=557))
        assert ran.count("alarm.qber") == 3
        assert ran.count("cascade.bicon") == 2
        assert ran.count("deliver.pools") == 2

    def test_running_qber_follows_each_reconciled_block(self):
        # Cascade sizes each block from the estimate the block before it
        # left behind; an alarmed block never reaches Cascade and leaves it.
        engine = QKDProtocolEngine(rng=DeterministicRNG(7))
        outcomes = distill_all(engine, sifted_blocks((0.06, 0.30, 0.03, 0.09)))
        expected = EngineParameters().cascade.default_error_rate_hint
        for outcome in outcomes:
            if outcome.cascade is not None:
                expected = 0.5 * expected + 0.5 * max(
                    outcome.cascade.errors_corrected / outcome.sifted_bits, 1e-4
                )
        assert [o.cascade is None for o in outcomes] == [False, True, False, False]
        assert engine.running_qber == expected

    def test_distillation_starts_no_thread_or_process(self):
        import multiprocessing
        import threading

        threads = threading.active_count()
        children = multiprocessing.active_children()
        engine = QKDProtocolEngine(rng=DeterministicRNG(7))
        distill_all(engine, sifted_blocks((0.06, 0.06)))
        distill_all(engine, sifted_blocks((0.06, 0.06), seed=102))
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == children

    def test_confidence_reaches_every_block(self):
        blocks = sifted_blocks((0.06, 0.06))
        strict = QKDProtocolEngine(rng=DeterministicRNG(7))
        relaxed = QKDProtocolEngine(EngineParameters(confidence_sigmas=4.0), DeterministicRNG(7))
        for tight, loose in zip(distill_all(strict, blocks), distill_all(relaxed, blocks)):
            assert loose.distilled_bits > tight.distilled_bits

    def test_randomness_battery_runs_on_each_reconciled_block(self, monkeypatch):
        engine = QKDProtocolEngine(EngineParameters(randomness_testing=True), DeterministicRNG(7))
        assessed = []
        original = engine.randomness_tester.assess

        def recording(bits):
            assessed.append(bits)
            return original(bits)

        monkeypatch.setattr(engine.randomness_tester, "assess", recording)
        outcomes = distill_all(engine, sifted_blocks((0.06, 0.30, 0.06)))
        assert assessed == [outcomes[0].cascade.corrected_key, outcomes[2].cascade.corrected_key]
        assert engine.statistics.blocks_distilled == 2 and engine.keys_match

    def test_slutsky_distils_no_more_than_bennett(self):
        blocks = sifted_blocks((0.05, 0.06, 0.07))
        bennett = QKDProtocolEngine(EngineParameters(defense="bennett"), DeterministicRNG(9))
        slutsky = QKDProtocolEngine(EngineParameters(defense="slutsky"), DeterministicRNG(9))
        distill_all(bennett, blocks)
        distill_all(slutsky, blocks)
        assert 0 < slutsky.statistics.distilled_bits <= bennett.statistics.distilled_bits

    def test_empty_flush_runs_nothing(self, record_stages):
        engine = QKDProtocolEngine(rng=DeterministicRNG(7))
        ran = record_stages(engine)
        auth_bits = engine.alice_auth.pool.available_bits
        assert engine.flush() is None
        assert ran == []
        assert engine.statistics == type(engine.statistics)()
        assert engine.alice_auth.pool.available_bits == auth_bits
        assert distill_all(engine, sifted_blocks((0.06,)))[0].block_id == 0

    def test_block_ids_follow_submission_order(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(7))
        outcomes = distill_all(engine, sifted_blocks((0.06, 0.30, 0.06, 0.06), seed=101))
        assert [o.block_id for o in outcomes] == [0, 1, 2, 3]


class TestFrameProcessing:
    def test_process_frame_accumulates_until_block(self, paper_channel):
        engine = QKDProtocolEngine(
            EngineParameters(block_size_bits=1024), DeterministicRNG(20)
        )
        outcomes = []
        # ~1.6 sifted bits per 1000 slots: 400k slots ~ 640 sifted bits per frame.
        for _ in range(3):
            frame = paper_channel.transmit(400_000)
            outcomes.extend(process_frame(engine, frame, mean_photon_number=0.1))
        assert engine.statistics.sifted_bits > 1024
        assert len(outcomes) >= 1
        assert all(not o.aborted for o in outcomes)

    def test_flush_handles_partial_block(self, paper_channel):
        engine = QKDProtocolEngine(
            EngineParameters(block_size_bits=100_000), DeterministicRNG(21)
        )
        frame = paper_channel.transmit(300_000)
        assert process_frame(engine, frame) == []
        outcome = engine.flush()
        assert outcome is not None
        assert outcome.sifted_bits == engine.statistics.sifted_bits

    def test_flush_empty_engine(self):
        assert QKDProtocolEngine(rng=DeterministicRNG(22)).flush() is None

    def test_flush_partial_block_distills_into_pools(self, paper_channel):
        """A flushed sub-block-size remainder still runs the full pipeline."""
        engine = QKDProtocolEngine(
            EngineParameters(block_size_bits=100_000), DeterministicRNG(30)
        )
        # Enough slots that the partial block clears the confidence margin
        # and actually distills bits (~1.6 sifted bits per 1000 slots).
        process_frame(engine, paper_channel.transmit(1_500_000))
        outcome = engine.flush()
        assert outcome is not None
        assert not outcome.aborted
        assert 0 < outcome.sifted_bits < 100_000
        assert outcome.distilled_bits > 0
        # The distilled remainder landed in both pools, identically.
        assert engine.alice_pool.available_bits == outcome.distilled_bits
        assert engine.keys_match
        # The accumulator is drained: a second flush has nothing to do.
        assert engine.flush() is None

    def test_flush_then_more_frames_resumes_accumulation(self, paper_channel):
        engine = QKDProtocolEngine(
            EngineParameters(block_size_bits=100_000), DeterministicRNG(31)
        )
        process_frame(engine, paper_channel.transmit(300_000))
        first = engine.flush()
        process_frame(engine, paper_channel.transmit(300_000))
        second = engine.flush()
        assert first is not None and second is not None
        assert (first.block_id, second.block_id) == (0, 1)

    def test_mean_qber_statistic(self, paper_channel):
        engine = QKDProtocolEngine(rng=DeterministicRNG(23))
        process_frame(engine, paper_channel.transmit(500_000))
        assert 0.03 < engine.statistics.mean_qber < 0.12
        assert 0 < engine.statistics.sifted_bits / engine.statistics.slots_processed < 0.01


class TestEngineMemory:
    def test_distilled_blocks_are_not_retained(self):
        # A link in continuous operation distils a block every ~1.3 s; the
        # engine must not keep each block's outcome (and through it the whole
        # public transcript).  What legitimately remains is the pooled key.
        import gc
        import tracemalloc

        engine = QKDProtocolEngine(rng=DeterministicRNG(31))
        pairs = [noisy_pair(2048, 0.05, seed=200 + i) for i in range(40)]

        def live_after(blocks):
            for alice, bob in blocks:
                engine.distill_block(alice, bob, transmitted_pulses=500_000)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            warm = live_after(pairs[:4])
            grown = live_after(pairs[4:])
        finally:
            tracemalloc.stop()
        assert (grown - warm) / 36 < 50_000

    def test_a_block_outcome_retains_little_beyond_its_transcript(self):
        # Whoever keeps a link report keeps every block's outcome, and an
        # outcome keeps its ~50 KB public transcript.  It must not also keep
        # what Cascade worked with to produce it: an object and an index view
        # per bisection step and each bisected subset's position array were
        # ~390 KB a block before a whole search became one entry of bytes.
        import gc
        import tracemalloc

        from repro import QKDSystem
        from repro.core.messages import CascadeBisection

        tracemalloc.start()
        try:
            report = QKDSystem(seed=2003).link().run_slots(10_000_000)
            outcomes = report.outcomes
            blocks = len(outcomes)
            searches = sum(
                isinstance(entry, CascadeBisection)
                for outcome in outcomes
                for entry in outcome.transcript.messages
            )
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            outcomes.clear()
            gc.collect()
            released = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert blocks == 8 and searches > 50 * blocks
        assert released / blocks <= 128 * 1024


class TestTranscriptEntries:
    def test_a_transcript_of_bisection_entries_survives_pickle_and_the_attack_copies(self):
        # An outcome is a plain value a caller may store or ship, so its
        # transcript must survive pickle; a forged transcript is built by
        # deep-copying it entry by entry.  Bytes and message count must come
        # through both.
        import copy
        import pickle

        from repro.core.messages import (
            CascadeBisection,
            CascadeBisectQuery,
            CascadeParityReply,
            PublicChannelLog,
        )

        engine = QKDProtocolEngine(rng=DeterministicRNG(41))
        log = engine.distill_block(
            *noisy_pair(2048, 0.05, seed=42), transmitted_pulses=500_000
        ).transcript
        entries = [m for m in log.messages if isinstance(m, CascadeBisection)]
        assert entries and len(log) > len(log.messages)
        transcript, count = log.transcript_bytes(), len(log)

        shipped = pickle.loads(pickle.dumps(log))
        assert (shipped.transcript_bytes(), len(shipped)) == (transcript, count)
        assert len(messages_of_type(shipped, CascadeBisectQuery)) == sum(
            entry.message_count for entry in entries
        ) // 2

        forged = PublicChannelLog(messages=[copy.deepcopy(m) for m in log.messages])
        assert (forged.transcript_bytes(), len(forged)) == (transcript, count)
        assert all(a is not b for a, b in zip(forged.messages, log.messages))
        tampered = PublicChannelLog(messages=[copy.deepcopy(m) for m in log.messages])
        reply = next(m for m in tampered.messages if isinstance(m, CascadeParityReply))
        reply.parities[0] ^= 1
        assert len(tampered) == count
        assert tampered.transcript_bytes() != transcript
        assert len(tampered.transcript_bytes()) == len(transcript)
        assert [m.wire_bytes for m in tampered.messages if isinstance(m, CascadeBisection)] == [
            entry.wire_bytes for entry in entries
        ]
        assert (log.transcript_bytes(), len(log)) == (transcript, count)
