"""Tests for the eavesdropping attack models and the system's response to them."""

import copy

import pytest

from repro.core.engine import QKDProtocolEngine
from repro.crypto.wegman_carter import AuthenticationError
from repro.core.messages import CascadeParityReply, PublicChannelLog
from repro.eve import BeamSplittingAttack, InterceptResendAttack
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.frames import detected, eve_known_sifted_bits, qber
from tests.oracles.dense_optics import PassiveChannel


@pytest.fixture
def channel():
    return QuantumChannel(ChannelParameters(), DeterministicRNG(31))


class TestPassiveChannel:
    def test_matches_no_attack_statistics(self, channel):
        baseline_channel = QuantumChannel(ChannelParameters(), DeterministicRNG(77))
        attacked_channel = QuantumChannel(ChannelParameters(), DeterministicRNG(77))
        baseline = baseline_channel.transmit(600_000)
        passive = attacked_channel.transmit(600_000, attack=PassiveChannel())
        assert qber(passive) == pytest.approx(qber(baseline), abs=0.02)
        assert detected(passive) == pytest.approx(detected(baseline), rel=0.1)


class TestInterceptResend:
    def test_eve_learns_intercepted_bits(self, channel):
        result = channel.transmit(500_000, attack=InterceptResendAttack(1.0))
        known = eve_known_sifted_bits(result)
        # Eve's basis matches Alice's on about half the sifted bits.
        assert known == pytest.approx(result.n_sifted / 2, rel=0.25)

    def test_zero_fraction_is_harmless(self, channel):
        result = channel.transmit(500_000, attack=InterceptResendAttack(0.0))
        assert qber(result) < 0.12
        assert eve_known_sifted_bits(result) == 0

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

class TestBeamSplitting:
    def test_eve_knowledge_matches_multiphoton_fraction(self, channel):
        attack = BeamSplittingAttack()
        result = channel.transmit(1_500_000, attack=attack)
        known = BeamSplittingAttack.eve_known_sifted_bits(result)
        fraction = known / max(result.n_sifted, 1)
        # Multi-photon fraction of detected pulses is ~ p_multi / p_nonempty ~ 4.9% at mu=0.1.
        assert 0.01 <= fraction <= 0.12

    def test_lossless_forwarding_increases_rate(self, channel):
        normal_channel = QuantumChannel(ChannelParameters(), DeterministicRNG(66))
        boosted_channel = QuantumChannel(ChannelParameters(), DeterministicRNG(66))
        normal = normal_channel.transmit(500_000, attack=BeamSplittingAttack(lossless_forwarding=False))
        boosted = boosted_channel.transmit(500_000, attack=BeamSplittingAttack(lossless_forwarding=True))
        assert detected(boosted) > detected(normal)


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


