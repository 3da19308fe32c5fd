"""Tests for the composable distillation pipeline (repro.pipeline)."""

import hashlib

import pytest

from repro.core.cascade import CascadeParameters, CascadeProtocol
from repro.core.engine import EngineParameters, QKDProtocolEngine
from repro.crypto.wegman_carter import WegmanCarterAuthenticator
from repro.core.messages import PrivacyAmplificationMessage
from repro.pipeline import DistillationPipeline, PipelineContext
from repro.pipeline.stages import (
    AuthenticationStage,
    CascadeStage,
    DeliveryStage,
    EntropyEstimationStage,
    PrivacyAmplificationStage,
    QberAlarmStage,
)
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.draws import sample
from tests.oracles.scalar_cascade import messages_of_type

#: The paper's Fig 9 stages, in the order the engine runs them.
ENGINE_STAGES = (
    "alarm.qber",
    "cascade.bicon",
    "entropy.estimate",
    "privacy.gf2n",
    "auth.wegman_carter",
    "deliver.pools",
)


def noisy_pair(n: int, error_rate: float, seed: int = 1):
    rng = DeterministicRNG(seed)
    alice = BitString.random(n, rng)
    errors = sample(rng, range(n), int(round(error_rate * n)))
    bob = alice.to_list()
    for index in errors:
        bob[index] ^= 1
    return alice, BitString(bob)


def run_hand_built(stages, seed, alice, bob, transmitted_pulses):
    """Run one block through ``stages`` against a fresh engine."""
    engine = QKDProtocolEngine(rng=DeterministicRNG(seed))
    ctx = PipelineContext(
        block_id=0,
        alice_key=alice,
        bob_key=bob,
        transmitted_pulses=transmitted_pulses,
        services=engine,
    )
    DistillationPipeline(stages).run(ctx)
    return engine


class TestPipelineComposer:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            DistillationPipeline([])

    def test_engine_pipeline_is_the_fixed_sequence(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(1))
        assert tuple(stage.name for stage in engine.pipeline.stages) == ENGINE_STAGES
        with pytest.raises(TypeError):
            engine.pipeline.stages[1] = engine.pipeline.stages[2]

    def test_every_stage_runs_once_in_order(self, record_stages):
        engine = QKDProtocolEngine(rng=DeterministicRNG(2))
        ran = record_stages(engine)
        alice, bob = noisy_pair(1024, 0.05, seed=3)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=200_000)
        assert not outcome.aborted
        assert tuple(ran) == ENGINE_STAGES

    def test_abort_skips_downstream_stages(self, record_stages):
        engine = QKDProtocolEngine(rng=DeterministicRNG(4))
        ran = record_stages(engine)
        alice, bob = noisy_pair(1024, 0.30, seed=5)  # above the QBER alarm
        engine.distill_block(alice, bob, transmitted_pulses=100_000)
        assert ran == ["alarm.qber"]


class TestEnginePipelineEquivalence:
    def test_same_seed_same_key(self):
        alice, bob = noisy_pair(2048, 0.05, seed=14)
        keys = []
        for _ in range(2):
            engine = QKDProtocolEngine(rng=DeterministicRNG(15))
            engine.distill_block(alice, bob, transmitted_pulses=500_000)
            keys.append(engine.alice_pool.draw_bits(engine.alice_pool.available_bits))
        assert keys[0] == keys[1]

    def test_hand_built_fixed_sequence_is_bit_identical(self):
        """The six stage classes, assembled by hand, distil what the engine
        does: the engine adds nothing between its stages."""
        alice, bob = noisy_pair(2048, 0.05, seed=12)
        engine = QKDProtocolEngine(rng=DeterministicRNG(13))
        engine.distill_block(alice, bob, transmitted_pulses=500_000)
        stages = (
            QberAlarmStage(),
            CascadeStage(),
            EntropyEstimationStage(),
            PrivacyAmplificationStage(),
            AuthenticationStage(),
            DeliveryStage(),
        )
        hand = run_hand_built(stages, 13, alice, bob, 500_000)
        assert hand.statistics == engine.statistics
        assert hand.running_qber == engine.running_qber
        assert hand.running_qber != engine.parameters.cascade.default_error_rate_hint
        n = engine.alice_pool.available_bits
        assert n > 0 and hand.alice_pool.available_bits == n
        assert hand.alice_pool.draw_bits(n) == engine.alice_pool.draw_bits(n)


class TestStagePolicies:
    def test_aborted_block_still_spends_authentication(self):
        """The abort decision is itself authenticated: an alarmed block costs
        each endpoint one tag's worth of pad (the key-exhaustion attack)."""
        engine = QKDProtocolEngine(rng=DeterministicRNG(35))
        start = engine.alice_auth.pool.available_bits
        alice, bob = noisy_pair(1024, 0.30, seed=36)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=100_000)
        assert outcome.aborted and not outcome.authenticated
        tag_bits = WegmanCarterAuthenticator.TAG_BITS
        assert engine.alice_auth.pool.available_bits == start - tag_bits
        assert engine.bob_auth.pool.available_bits == start - tag_bits

    def test_unconfirmed_block_stops_at_cascade(self, record_stages):
        """One round of eight subsets and no first pass leaves the 6 % block
        with residual errors, which the confirmation parities catch; the two
        0.2 % blocks are fully corrected.  The unconfirmed block gets no
        entropy estimate, no privacy amplification and no privacy messages,
        and its neighbours' key is pinned."""
        cascade = CascadeParameters(block_first_pass=False, rounds=1, subsets_per_round=8)
        engine = QKDProtocolEngine(EngineParameters(cascade=cascade), DeterministicRNG(7))
        ran = record_stages(engine)
        outcomes = [
            engine.distill_block(*noisy_pair(2048, rate, seed=100 + index), 500_000)
            for index, rate in enumerate((0.002, 0.06, 0.002))
        ]
        assert ran == [*ENGINE_STAGES, "alarm.qber", "cascade.bicon", *ENGINE_STAGES]
        assert [o.abort_reason for o in outcomes] == [
            "", "error correction failed confirmation", ""
        ]
        assert not outcomes[1].cascade.confirmed and not outcomes[1].authenticated
        assert outcomes[1].entropy is None and outcomes[1].privacy is None
        assert [
            bool(messages_of_type(o.transcript, PrivacyAmplificationMessage)) for o in outcomes
        ] == [True, False, True]
        digest = hashlib.sha256()
        for block in engine.alice_pool.blocks:
            digest.update(str(block.bits).encode())
        assert digest.hexdigest() == (
            "1a996fa9cd8d5c5ad12e408d9358649915edf271d4e809d2c927b1aef8fbcfcc"
        )
        stats = engine.statistics
        assert (
            stats.distilled_bits, stats.blocks_distilled, stats.blocks_aborted,
            stats.disclosed_parities,
        ) == (3376, 2, 1, 272)
        assert engine.alice_auth.pool.available_bits == 3937
        assert engine.bob_auth.pool.available_bits == 3937

    def test_authentication_failure_aborts_without_delivery(self, record_stages):
        engine = QKDProtocolEngine(rng=DeterministicRNG(37))
        ran = record_stages(engine)
        # An extra tag moves Alice's pad out of step with Bob's.
        engine.alice_auth.tag_payload(b"desync", covered_messages=0)
        alice, bob = noisy_pair(2048, 0.05, seed=38)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=500_000)
        assert outcome.aborted and outcome.abort_reason == "authentication failure"
        assert not outcome.authenticated and outcome.distilled_bits == 0
        assert engine.alice_pool.available_bits == 0
        assert engine.statistics.blocks_distilled == 0
        assert tuple(ran) == ENGINE_STAGES[:-1]

    def test_delivery_requires_authentication(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(39))
        ctx = PipelineContext(
            block_id=0,
            alice_key=BitString([1, 0, 1]),
            bob_key=BitString([1, 0, 1]),
            transmitted_pulses=100,
            services=engine,
        )
        ctx.distilled = BitString([1, 1, 0, 1] * 64)
        DeliveryStage().run(ctx)
        assert engine.alice_pool.available_bits == 0
        assert engine.statistics.blocks_distilled == 0
        ctx.authenticated = True
        DeliveryStage().run(ctx)
        delivered = 256 - engine.parameters.auth_replenish_bits
        assert engine.alice_pool.available_bits == delivered
        assert engine.bob_pool.available_bits == delivered
        assert engine.statistics.blocks_distilled == 1


class TestDefenseSelection:
    def test_slutsky_defense_is_more_conservative(self):
        alice, bob = noisy_pair(3072, 0.05, seed=17)
        bennett = QKDProtocolEngine(rng=DeterministicRNG(18))
        slutsky = QKDProtocolEngine(EngineParameters(defense="slutsky"), DeterministicRNG(18))
        o_bennett = bennett.distill_block(alice, bob, transmitted_pulses=800_000)
        o_slutsky = slutsky.distill_block(alice, bob, transmitted_pulses=800_000)
        assert o_slutsky.entropy.defense.name == "slutsky"
        assert tuple(stage.name for stage in slutsky.pipeline.stages) == ENGINE_STAGES
        # Slutsky's defense is strictly more conservative at this QBER.
        assert o_slutsky.distilled_bits < o_bennett.distilled_bits


class TestEngineServices:
    def test_qber_recorded_on_outcomes_and_blocks(self):
        """QBER is a measurement, not a stage product: outcomes and pooled
        blocks carry the real error rate."""
        engine = QKDProtocolEngine(rng=DeterministicRNG(41))
        alice, bob = noisy_pair(2048, 0.05, seed=42)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=500_000)
        assert outcome.qber == pytest.approx(0.05, abs=0.001)
        assert engine.alice_pool.blocks[-1].qber == outcome.qber

    def test_reassigning_engine_components_reaches_stages(self):
        """Stages read their protocols from the engine at run time, so a
        component replaced there is the one the next block uses."""
        engine = QKDProtocolEngine(rng=DeterministicRNG(43))
        replacement = CascadeProtocol(
            CascadeParameters(rounds=2, subsets_per_round=16), DeterministicRNG(44)
        )
        engine.cascade = replacement
        alice, bob = noisy_pair(2048, 0.05, seed=45)
        outcome = engine.distill_block(alice, bob, transmitted_pulses=500_000)
        assert outcome.cascade.rounds_used <= 2


class TestPoolIndependence:
    def test_pool_blocks_never_alias(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(23))
        alice, bob = noisy_pair(2048, 0.05, seed=24)
        engine.distill_block(alice, bob, transmitted_pulses=500_000)
        alice_block = engine.alice_pool.blocks[-1]
        bob_block = engine.bob_pool.blocks[-1]
        assert alice_block.bits == bob_block.bits
        assert alice_block.bits is not bob_block.bits

    def test_bitstring_copy_is_independent(self):
        original = BitString([1, 0, 1, 1])
        dup = original.copy()
        assert dup == original
        assert dup is not original


class TestContext:
    def test_distilled_bits_zero_until_authenticated(self):
        ctx = PipelineContext(
            block_id=0,
            alice_key=BitString([1, 0, 1]),
            bob_key=BitString([1, 0, 1]),
            transmitted_pulses=100,
        )
        ctx.distilled = BitString([1, 1])
        assert ctx.distilled_bits == 0
        ctx.authenticated = True
        assert ctx.distilled_bits == 2

    def test_mismatched_key_lengths_rejected(self):
        with pytest.raises(ValueError):
            PipelineContext(
                block_id=0,
                alice_key=BitString([1, 0, 1]),
                bob_key=BitString([1, 0]),
                transmitted_pulses=100,
            )

    def test_stages_deliver_into_the_contexts_own_services(self):
        """Stages read everything from ``ctx.services``: a context delivers
        into its own engine's pools, even when routed through another
        engine's pipeline."""
        owner = QKDProtocolEngine(rng=DeterministicRNG(47))
        foreign = QKDProtocolEngine(rng=DeterministicRNG(48))
        alice, bob = noisy_pair(2048, 0.05, seed=49)
        ctx = PipelineContext(
            block_id=0,
            alice_key=alice,
            bob_key=bob,
            transmitted_pulses=500_000,
            services=owner,
        )
        foreign.pipeline.run(ctx)
        assert owner.alice_pool.available_bits > 0
        assert foreign.alice_pool.available_bits == 0
        assert owner.statistics.blocks_distilled == 1
        assert foreign.statistics.blocks_distilled == 0

    def test_abort_sets_reason(self):
        ctx = PipelineContext(
            block_id=0,
            alice_key=BitString(),
            bob_key=BitString(),
            transmitted_pulses=0,
        )
        ctx.abort("testing")
        assert ctx.aborted and ctx.abort_reason == "testing"
