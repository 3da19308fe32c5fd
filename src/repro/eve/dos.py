"""Denial-of-service by authentication-key exhaustion.

Section 2 of the paper warns that prepositioned-secret authentication
"appears open to denial of service attacks in which an adversary forces a QKD
system to exhaust its stockpile of key material, at which point it can no
longer perform authentication."  The mechanism: every authenticated protocol
exchange consumes pad bits from the shared pool; if Eve keeps the quantum
channel too noisy for any block to distill (for example by heavy intercept-
resend, or simply by cutting the fiber and injecting light), the pool is
consumed by failed protocol rounds and never replenished.

:class:`KeyExhaustionDoS` drives that scenario against a
:class:`QKDProtocolEngine`: it repeatedly feeds the engine blocks whose QBER
is above the distillation threshold (so authentication keeps running but no
key is ever banked) and reports how many rounds the authentication pool
survives.  Benchmark E11 sweeps the attack intensity.
"""

from __future__ import annotations

from typing import Optional

from dataclasses import dataclass

from repro.core.engine import QKDProtocolEngine
from repro.core.keypool import KeyPoolExhaustedError
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


@dataclass
class DoSOutcome:
    """How the engine fared under sustained authentication-draining attack."""

    rounds_survived: int
    pool_exhausted: bool
    secret_bits_remaining: int
    distilled_bits_during_attack: int


class KeyExhaustionDoS:
    """Forces protocol rounds that consume authentication key without producing any."""

    name = "key-exhaustion-dos"
    #: Error rate forced onto every block: below the engine's abort
    #: threshold, above what entropy estimation can distill from.
    induced_qber = 0.30

    def __init__(self, block_bits: int = 512):
        if block_bits <= 0:
            raise ValueError("block size must be positive")
        self.block_bits = block_bits

    def run(
        self,
        engine: QKDProtocolEngine,
        max_rounds: int = 1000,
        rng: Optional[DeterministicRNG] = None,
    ) -> DoSOutcome:
        """Attack until the authentication pool dies or ``max_rounds`` pass.

        Each round submits one sifted block carrying the induced error rate.
        If the induced QBER is above the engine's abort threshold the block is
        rejected before correction (cheap for the defender); if it is *below*
        the threshold but high enough that entropy estimation yields nothing,
        the defender pays the full correction and authentication cost for zero
        key — the worst case the paper worries about.
        """
        rng = rng or DeterministicRNG(0)
        distilled_before = engine.statistics.distilled_bits
        rounds = 0
        exhausted = False

        for _ in range(max_rounds):
            alice_key = BitString.random(self.block_bits, rng)
            bob_bits = alice_key.to_list()
            n_errors = int(round(self.induced_qber * self.block_bits))
            error_positions = rng.sample(range(self.block_bits), n_errors)
            for position in error_positions:
                bob_bits[position] ^= 1
            bob_key = BitString(bob_bits)

            try:
                engine.distill_block(
                    alice_key,
                    bob_key,
                    transmitted_pulses=self.block_bits * 200,
                )
            except KeyPoolExhaustedError:
                exhausted = True
                break
            rounds += 1

        return DoSOutcome(
            rounds_survived=rounds,
            pool_exhausted=exhausted,
            secret_bits_remaining=min(
                engine.alice_auth.available_secret_bits,
                engine.bob_auth.available_secret_bits,
            ),
            distilled_bits_during_attack=engine.statistics.distilled_bits - distilled_before,
        )
