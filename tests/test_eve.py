"""Tests for the eavesdropping attack models and the system's response to them."""

import copy

import pytest

from repro.core.engine import EngineParameters, QKDProtocolEngine
from repro.crypto.wegman_carter import AuthenticationError
from repro.core.messages import CascadeParityReply, PublicChannelLog
from repro.eve import BeamSplittingAttack, InterceptResendAttack, KeyExhaustionDoS
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.oracles.dense_optics import PassiveChannel
from tests.test_engine import process_frame


@pytest.fixture
def channel():
    return QuantumChannel(ChannelParameters.paper_operating_point(), DeterministicRNG(31))


class TestPassiveChannel:
    def test_matches_no_attack_statistics(self, channel):
        baseline_channel = QuantumChannel(ChannelParameters.paper_operating_point(), DeterministicRNG(77))
        attacked_channel = QuantumChannel(ChannelParameters.paper_operating_point(), DeterministicRNG(77))
        baseline = baseline_channel.transmit(600_000)
        passive = attacked_channel.transmit(600_000, attack=PassiveChannel())
        assert passive.qber == pytest.approx(baseline.qber, abs=0.02)
        assert passive.n_detected == pytest.approx(baseline.n_detected, rel=0.1)


class TestInterceptResend:
    def test_full_intercept_raises_qber_to_25_percent(self, channel):
        result = channel.transmit(800_000, attack=InterceptResendAttack(1.0))
        intrinsic = channel.interferometer.parameters.intrinsic_error_rate
        # 25% induced on intercepted-and-resent pulses plus (1-25%-ish) intrinsic mix;
        # accept a generous band around 25% + intrinsic.
        assert 0.22 <= result.qber <= 0.38

    def test_partial_intercept_scales_linearly(self, channel):
        quarter = channel.transmit(800_000, attack=InterceptResendAttack(0.25))
        # Expected extra error: ~0.25 * 0.25 = 6.25 percentage points over the intrinsic rate.
        assert 0.09 <= quarter.qber <= 0.20

    def test_eve_learns_intercepted_bits(self, channel):
        attack = InterceptResendAttack(1.0)
        result = channel.transmit(500_000, attack=attack)
        known = InterceptResendAttack.eve_known_sifted_bits(result)
        # Eve's basis matches Alice's on about half the sifted bits.
        assert known == pytest.approx(result.n_sifted / 2, rel=0.25)

    def test_zero_fraction_is_harmless(self, channel):
        result = channel.transmit(500_000, attack=InterceptResendAttack(0.0))
        assert result.qber < 0.12
        assert InterceptResendAttack.eve_known_sifted_bits(result) == 0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            InterceptResendAttack(1.5)

    def test_invalid_resend_mean_fails_at_construction(self):
        # Used to surface as a numpy ValueError inside the first intercept()
        # (negative) or not at all (too large for the uint16 photon rows).
        with pytest.raises(ValueError, match="resend mean"):
            InterceptResendAttack(resend_mean_photons=-0.5)
        with pytest.raises(ValueError, match="resend mean"):
            InterceptResendAttack(resend_mean_photons=1e6)
        assert InterceptResendAttack(resend_mean_photons=0.0).resend_mean_photons == 0.0
        assert InterceptResendAttack(resend_mean_photons=2.0).resend_mean_photons == 2.0

    def test_engine_aborts_under_full_attack(self, channel):
        engine = QKDProtocolEngine(EngineParameters(block_size_bits=1024), DeterministicRNG(32))
        attack = InterceptResendAttack(1.0)
        for _ in range(3):
            frame = channel.transmit(400_000, attack=attack)
            process_frame(engine, frame)
        flush = engine.flush()
        aborted = engine.statistics.blocks_aborted
        assert aborted >= 1
        assert engine.statistics.distilled_bits == 0


class TestBeamSplitting:
    def test_induces_no_errors(self, channel):
        clean_channel = QuantumChannel(ChannelParameters.paper_operating_point(), DeterministicRNG(55))
        pns_channel = QuantumChannel(ChannelParameters.paper_operating_point(), DeterministicRNG(55))
        clean = clean_channel.transmit(800_000)
        tapped = pns_channel.transmit(800_000, attack=BeamSplittingAttack())
        assert tapped.qber == pytest.approx(clean.qber, abs=0.02)

    def test_eve_knowledge_matches_multiphoton_fraction(self, channel):
        attack = BeamSplittingAttack()
        result = channel.transmit(1_500_000, attack=attack)
        known = BeamSplittingAttack.eve_known_sifted_bits(result)
        fraction = known / max(result.n_sifted, 1)
        # Multi-photon fraction of detected pulses is ~ p_multi / p_nonempty ~ 4.9% at mu=0.1.
        assert 0.01 <= fraction <= 0.12

    def test_entropy_charge_covers_eves_knowledge(self, channel):
        """The multi-photon charge must be at least what the PNS attack really learned."""
        attack = BeamSplittingAttack()
        engine = QKDProtocolEngine(EngineParameters(block_size_bits=1024), DeterministicRNG(34))
        frame = channel.transmit(1_200_000, attack=attack)
        known = BeamSplittingAttack.eve_known_sifted_bits(frame)
        outcomes = process_frame(engine, frame, mean_photon_number=0.1)
        charged = sum(o.entropy.transparent.information_bits for o in outcomes if o.entropy)
        sifted_covered = sum(o.sifted_bits for o in outcomes if o.entropy)
        if sifted_covered:
            charge_rate = charged / sifted_covered
            known_rate = known / frame.n_sifted
            assert charge_rate >= known_rate * 0.8

    def test_lossless_forwarding_increases_rate(self, channel):
        normal_channel = QuantumChannel(ChannelParameters.paper_operating_point(), DeterministicRNG(66))
        boosted_channel = QuantumChannel(ChannelParameters.paper_operating_point(), DeterministicRNG(66))
        normal = normal_channel.transmit(500_000, attack=BeamSplittingAttack(lossless_forwarding=False))
        boosted = boosted_channel.transmit(500_000, attack=BeamSplittingAttack(lossless_forwarding=True))
        assert boosted.n_detected > normal.n_detected


class TestManInTheMiddle:
    def _transcript(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(35))
        rng = DeterministicRNG(36)
        alice = BitString.random(1024, rng)
        bob = alice ^ BitString(int(i in (3, 500)) for i in range(len(alice)))
        outcome = engine.distill_block(alice, bob, transmitted_pulses=100_000)
        return engine, outcome.transcript

    def test_tampering_detected_by_authentication(self):
        """Eve flips one Cascade parity in transit: Bob's check fails."""
        engine, log = self._transcript()
        tampered = PublicChannelLog(messages=[copy.deepcopy(m) for m in log.messages])
        reply = next(m for m in tampered.messages if isinstance(m, CascadeParityReply))
        reply.parities[0] ^= 1
        tag = engine.alice_auth.tag_payload(log.transcript_bytes(), len(log))
        with pytest.raises(AuthenticationError):
            engine.bob_auth.verify_payload(tampered.transcript_bytes(), tag)

    def test_impersonation_without_secret_fails(self):
        """Eve replays the transcript under her own identity: without the
        shared pool her tag is one Bob rejects."""
        engine, log = self._transcript()
        from repro.core.authentication import AuthenticatedChannel

        eve_auth = AuthenticatedChannel(BitString.random(4096, DeterministicRNG(40)))
        eve_tag = eve_auth.tag_payload(log.transcript_bytes(), len(log))
        with pytest.raises(AuthenticationError):
            engine.bob_auth.verify_payload(log.transcript_bytes(), eve_tag)


class TestDoS:
    def test_exhaustion_with_small_preshared_pool(self):
        params = EngineParameters(preshared_secret_bits=512, block_size_bits=512)
        engine = QKDProtocolEngine(params, DeterministicRNG(41))
        attack = KeyExhaustionDoS(induced_qber=0.30, block_bits=256)
        outcome = attack.run(engine, max_rounds=200, rng=DeterministicRNG(42))
        assert outcome.pool_exhausted
        assert outcome.distilled_bits_during_attack == 0
        assert outcome.rounds_survived < 200

    def test_larger_pool_survives_longer(self):
        small = QKDProtocolEngine(
            EngineParameters(preshared_secret_bits=512), DeterministicRNG(43)
        )
        large = QKDProtocolEngine(
            EngineParameters(preshared_secret_bits=2048), DeterministicRNG(43)
        )
        attack = KeyExhaustionDoS(induced_qber=0.30, block_bits=256)
        small_outcome = attack.run(small, max_rounds=300, rng=DeterministicRNG(44))
        large_outcome = attack.run(large, max_rounds=300, rng=DeterministicRNG(44))
        assert large_outcome.rounds_survived > small_outcome.rounds_survived

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyExhaustionDoS(induced_qber=0.9)
        with pytest.raises(ValueError):
            KeyExhaustionDoS(block_bits=0)
