"""E11 — Authentication key consumption, replenishment and DoS (sections 2, 5).

Paper claims: Wegman-Carter authentication consumes shared secret bits that
"cannot be re-used even once", "a complete authenticated conversation can
validate a large number of new, shared secret bits from QKD, and a small
number of these may be used to replenish the pool", and prepositioned-key
authentication "appears open to denial of service attacks in which an
adversary forces a QKD system to exhaust its stockpile of key material".

Part one shows the steady-state balance: distilling blocks consumes
authentication pad but replenishment more than covers it.  Part two runs the
key-exhaustion DoS and measures how long pools of different sizes survive.
"""

from benchmarks.conftest import run_once
from repro.core.engine import EngineParameters, QKDProtocolEngine
from repro.eve import KeyExhaustionDoS
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


def _noisy_pair(n, rate, seed):
    rng = DeterministicRNG(seed)
    alice = BitString.random(n, rng)
    errors = rng.sample(range(n), int(round(rate * n)))
    bob = alice.to_list()
    for index in errors:
        bob[index] ^= 1
    return alice, BitString(bob)


def test_e11_steady_state_pool_balance(benchmark, table):
    def experiment():
        engine = QKDProtocolEngine(EngineParameters(), DeterministicRNG(51))
        start = engine.alice_auth.available_secret_bits
        history = [start]
        for block_index in range(8):
            alice, bob = _noisy_pair(2048, 0.06, seed=100 + block_index)
            engine.distill_block(alice, bob, transmitted_pulses=600_000)
            history.append(engine.alice_auth.available_secret_bits)
        return start, history, engine.alice_auth.statistics

    start, history, stats = run_once(benchmark, experiment)
    table(
        "E11: authentication pool level while distilling 8 blocks (replenish 128 bits/block)",
        ["after block", "pool bits", "consumed so far", "replenished so far"],
        [
            [index, level, stats.secret_bits_consumed if index == 8 else "-",
             stats.secret_bits_replenished if index == 8 else "-"]
            for index, level in enumerate(history)
        ],
    )
    # Consumption per block is 2 tags x 32 bits; replenishment is 128 bits, so
    # the pool grows in steady state — the sustainability claim of section 5.
    assert history[-1] > start
    assert stats.secret_bits_replenished > stats.secret_bits_consumed
    assert all(b >= a - 64 for a, b in zip(history, history[1:]))


def test_e11_dos_exhaustion_vs_pool_size(benchmark, table):
    def experiment():
        rows = []
        for preshared_bits in (512, 1024, 2048, 4096):
            engine = QKDProtocolEngine(
                EngineParameters(preshared_secret_bits=preshared_bits), DeterministicRNG(52)
            )
            attack = KeyExhaustionDoS(block_bits=256)
            outcome = attack.run(engine, max_rounds=400, rng=DeterministicRNG(53))
            rows.append((preshared_bits, outcome))
        return rows

    rows = run_once(benchmark, experiment)
    table(
        "E11: rounds of denial-of-service survived before authentication fails",
        ["preshared bits", "rounds survived", "pool exhausted", "key distilled during attack"],
        [
            [bits, outcome.rounds_survived, outcome.pool_exhausted, outcome.distilled_bits_during_attack]
            for bits, outcome in rows
        ],
    )
    # The attack always wins eventually (no key forms to replenish the pool) ...
    assert all(outcome.pool_exhausted for _, outcome in rows)
    assert all(outcome.distilled_bits_during_attack == 0 for _, outcome in rows)
    # ... but bigger prepositioned pools survive proportionally longer.
    survived = [outcome.rounds_survived for _, outcome in rows]
    assert all(a < b for a, b in zip(survived, survived[1:]))
