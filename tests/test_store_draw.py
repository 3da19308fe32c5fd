"""How key leaves a store: the pool draw and the store's reservation script.

(a) ``KeyPool.draw_bits`` against ``tests/oracles/gathering_keypool.py``
(the block-gathering body it replaced): over random block layouts — 1-bit
and non-byte-aligned blocks, empty ones — random head offsets, and draws of
nothing, inside the head block, exactly to its end, across blocks and past
the level, both leave the same bits, blocks, head offset and counters.  A
256-bit key from a 2 048-bit block never reaches the gathering code.

(b) One :class:`~repro.kms.store.KeyStore` driven through a fixed script —
deposits, reservations, consumption with its pool draws, whole-reservation
draws, releases, expiry, draws that would invade a reservation, a
negotiation that fails — under explicit timestamps.  Every step's error
type, levels, level-change notifications and depletion rate, the final
statistics and the digest of every drawn bit are pinned as literals, so a
change to how a grant is kept or a draw is counted shows here first.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keypool import KeyBlock, KeyPool, KeyPoolExhaustedError
from repro.kms import KeyStore, ReservationError
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.oracles.gathering_keypool import gathering_draw_bits


# --------------------------------------------------------------------- #
# (a) KeyPool.draw_bits against the gathering oracle
# --------------------------------------------------------------------- #

BLOCK_LENGTHS = st.one_of(st.integers(0, 40), st.sampled_from([1, 7, 9, 63, 255, 2048]))
DRAW_KINDS = ["zero", "inside", "to_end", "spanning", "any", "too_many"]


def pool_state(pool):
    return (
        [(block.block_id, block.bits) for block in pool.blocks],
        pool._head_offset,
        pool.bits_consumed,
        pool.available_bits,
    )


def draw_size(pool, kind, fraction):
    """A draw of the named kind against the pool's current layout."""
    level = pool.available_bits
    left_in_head = len(pool.blocks[0]) - pool._head_offset if pool.blocks else 0
    if kind == "zero":
        return 0
    if kind == "inside" and left_in_head > 1:
        return 1 + int(fraction * (left_in_head - 2))
    if kind == "to_end":
        return left_in_head
    if kind == "spanning" and level > left_in_head:
        return left_in_head + 1 + int(fraction * (level - left_in_head - 1))
    if kind == "too_many":
        return level + 1 + int(fraction * 8)
    return int(fraction * level)


@given(
    lengths=st.lists(BLOCK_LENGTHS, max_size=8),
    offset_fraction=st.floats(0.0, 1.0),
    draws=st.lists(st.tuples(st.sampled_from(DRAW_KINDS), st.floats(0.0, 1.0)), max_size=12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_draw_bits_is_the_gathering_oracle(lengths, offset_fraction, draws, seed):
    rng = DeterministicRNG(seed)
    bits = [BitString.random(n, rng) for n in lengths]
    offset = int(offset_fraction * (lengths[0] - 1)) if lengths and lengths[0] else 0

    def build():
        blocks = [KeyBlock(b.copy(), i) for i, b in enumerate(bits)]
        return KeyPool(name="pool", blocks=blocks, _head_offset=offset)

    shipped, oracle = build(), build()
    assert pool_state(shipped) == pool_state(oracle)
    for kind, fraction in draws:
        count = draw_size(oracle, kind, fraction)
        try:
            expected = gathering_draw_bits(oracle, count)
        except KeyPoolExhaustedError:
            with pytest.raises(KeyPoolExhaustedError):
                shipped.draw_bits(count)
        else:
            drawn = shipped.draw_bits(count)
            assert drawn == expected and len(drawn) == count
        assert pool_state(shipped) == pool_state(oracle)


def test_a_key_inside_the_head_block_is_one_slice(monkeypatch):
    """256-bit keys from a 2 048-bit block, through a store: no piece is
    gathered, concatenated or measured with ``len(block)`` — down to the
    draw that empties the block."""
    store = KeyStore(("alice", "bob"))
    store.deposit(BitString.random(2048, DeterministicRNG(3)))
    deposited = store.local_pool.blocks[0].bits

    def gathering(*args):
        raise AssertionError("a head-block draw took the gathering path")

    monkeypatch.setattr(BitString, "concat", gathering)
    monkeypatch.setattr(KeyBlock, "__len__", gathering)
    for i in range(8):
        key = store.draw(store.reserve(256), now=float(i))
        assert key == deposited[256 * i : 256 * (i + 1)]
    assert store.local_pool.blocks == store.remote_pool.blocks == []
    assert store.available_bits == 0


# --------------------------------------------------------------------- #
# (b) A pinned store script
# --------------------------------------------------------------------- #


class Script:
    """Runs named steps against one store and records what each one did."""

    def __init__(self):
        self.store = KeyStore(
            ("alice", "bob"),
            capacity_bits=4096,
            low_water_bits=256,
            high_water_bits=1024,
            max_key_age_seconds=100.0,
            depletion_halflife_seconds=60.0,
        )
        self.notifications = 0
        self.store.on_level_change = self._notified
        self.drawn = hashlib.sha256()
        self.rows = []

    def _notified(self, pair):
        self.notifications += 1

    def take(self, bits):
        """Fold drawn material into the digest (length-prefixed)."""
        self.drawn.update(len(bits).to_bytes(4, "big") + bits.to_bytes())
        return bits

    def step(self, label, action):
        try:
            action()
            outcome = None
        except (KeyPoolExhaustedError, ReservationError, RuntimeError) as exc:
            outcome = type(exc).__name__
        store = self.store
        self.rows.append(
            (
                label,
                outcome,
                store.available_bits,
                store.remote_pool.available_bits,
                store.reserved_bits,
                store.unreserved_bits,
                self.notifications,
                store.depletion_rate_bps,
            )
        )

    # -- the consumer patterns ------------------------------------------ #

    def consume(self, reservation, now, draws):
        """Inside ``consuming``: the given (local, remote) draw sizes."""
        with self.store.consuming(reservation, now=now):
            for local, remote in draws:
                self.take(self.store.local_pool.draw_bits(local))
                self.take(self.store.remote_pool.draw_bits(remote))

    def draw(self, reservation, now):
        """The whole reservation from both pools, checked equal."""
        return self.take(self.store.draw(reservation, now))

    def fail_negotiation(self, reservation, now):
        with self.store.consuming(reservation, now=now):
            raise RuntimeError("negotiation failed before drawing")


def run_script():
    script = Script()
    store = script.store
    held = {}

    def deposit(bits, seed, now):
        return lambda: store.deposit(BitString.random(bits, DeterministicRNG(seed)), now=now)

    def reserve(name, bits, now):
        return lambda: held.__setitem__(name, store.reserve(bits, now=now))

    def outside(local, remote):
        return lambda: (
            script.take(store.local_pool.draw_bits(local)),
            script.take(store.remote_pool.draw_bits(remote)),
        )

    s = script.step
    s("deposit 1000", deposit(1000, 11, 0.0))
    s("deposit 2048", deposit(2048, 12, 5.0))
    s("reserve r1 256", reserve("r1", 256, 10.0))
    s("consume r1", lambda: script.consume(held["r1"], 12.0, [(256, 256)]))
    s("reserve r2 300", reserve("r2", 300, 20.0))
    s("draw r2", lambda: script.draw(held["r2"], 25.0))
    s("reserve r3 2000", reserve("r3", 2000, 30.0))
    s("invading draw 600", outside(600, 600))
    s("unreserved draw 100", outside(100, 100))
    s("reserve 1000 refused", reserve("refused", 1000, 35.0))
    s("release r3", lambda: store.release(held["r3"]))
    s("release r3 again", lambda: store.release(held["r3"]))
    s("consume r1 again", lambda: script.consume(held["r1"], 41.0, []))
    s("draw r2 again", lambda: script.draw(held["r2"], 42.0))
    s("expire at 105", lambda: store.expire(now=105.0))
    s("reserve r4 500", reserve("r4", 500, 110.0))
    s("expire at 200 under r4", lambda: store.expire(now=200.0))
    s("r4 negotiation fails", lambda: script.fail_negotiation(held["r4"], 115.0))
    s("reserve r5 64", reserve("r5", 64, 150.0))
    s("draw r5", lambda: script.draw(held["r5"], 160.0))
    s("deposit 3000 truncated", deposit(3000, 13, 170.0))
    s("reserve r6 2100", reserve("r6", 2100, 175.0))
    s("draw r6 across blocks", lambda: script.draw(held["r6"], 180.0))
    s("reserve r7 100", reserve("r7", 100, 190.0))
    s("reserve r8 1500", reserve("r8", 1500, 190.0))
    s("r7 overdraws its grant", lambda: script.consume(held["r7"], 195.0, [(60, 60), (400, 400)]))
    s("r8 draws part", lambda: script.consume(held["r8"], 200.0, [(700, 700), (0, 0)]))
    s("reserve r10 200", reserve("r10", 200, 205.0))
    s("empty draw", outside(0, 0))
    s("one bit into r10", lambda: outside(store.unreserved_bits + 1, 0)())
    s("drain unreserved", lambda: outside(store.unreserved_bits, store.unreserved_bits)())
    s("draw r10", lambda: script.draw(held["r10"], 210.0))
    s("one bit more", outside(1, 1))
    s("deposit 7", deposit(7, 14, 260.0))
    s("reserve r9 7", reserve("r9", 7, 261.0))
    s("draw r9", lambda: script.draw(held["r9"], 400.0))
    s("expire at 1000", lambda: store.expire(now=1000.0))
    return script


#: (step, error raised, local level, remote level, reserved, unreserved,
#: level-change notifications so far, depletion_rate_bps) after each step.
PINNED_ROWS = [
    ("deposit 1000", None, 1000, 1000, 0, 1000, 1, 0.0),
    ("deposit 2048", None, 3048, 3048, 0, 3048, 2, 0.0),
    ("reserve r1 256", None, 3048, 3048, 256, 2792, 2, 0.0),
    ("consume r1", None, 2792, 2792, 0, 2792, 3, 0.0),
    ("reserve r2 300", None, 2792, 2792, 300, 2492, 3, 0.0),
    ("draw r2", None, 2492, 2492, 0, 2492, 5, 5.0),
    ("reserve r3 2000", None, 2492, 2492, 2000, 492, 5, 5.0),
    ("invading draw 600", "KeyPoolExhaustedError", 2492, 2492, 2000, 492, 5, 5.0),
    ("unreserved draw 100", None, 2392, 2392, 2000, 392, 6, 5.0),
    ("reserve 1000 refused", "KeyStoreExhaustedError", 2392, 2392, 2000, 392, 6, 5.0),
    ("release r3", None, 2392, 2392, 0, 2392, 6, 5.0),
    ("release r3 again", "ReservationError", 2392, 2392, 0, 2392, 6, 5.0),
    ("consume r1 again", "ReservationError", 2392, 2392, 0, 2392, 6, 5.0),
    ("draw r2 again", "ReservationError", 2392, 2392, 0, 2392, 6, 5.0),
    ("expire at 105", None, 2048, 2048, 0, 2048, 7, 5.0),
    ("reserve r4 500", None, 2048, 2048, 500, 1548, 7, 5.0),
    ("expire at 200 under r4", None, 2048, 2048, 500, 1548, 7, 5.0),
    ("r4 negotiation fails", "RuntimeError", 2048, 2048, 0, 2048, 8, 1.1111111111111112),
    ("reserve r5 64", None, 2048, 2048, 64, 1984, 8, 1.1111111111111112),
    ("draw r5", None, 1984, 1984, 0, 1984, 10, 1.3444444444444446),
    ("deposit 3000 truncated", None, 4096, 4096, 0, 4096, 11, 1.3444444444444446),
    ("reserve r6 2100", None, 4096, 4096, 2100, 1996, 11, 1.3444444444444446),
    ("draw r6 across blocks", None, 1996, 1996, 0, 1996, 13, 35.89629629629629),
    ("reserve r7 100", None, 1996, 1996, 100, 1896, 13, 35.89629629629629),
    ("reserve r8 1500", None, 1996, 1996, 1600, 396, 13, 35.89629629629629),
    ("r7 overdraws its grant", "KeyPoolExhaustedError", 1936, 1936, 1500, 436, 15, 27.922222222222217),
    ("r8 draws part", None, 1236, 1236, 0, 1236, 18, 37.26203703703703),
    ("reserve r10 200", None, 1236, 1236, 200, 1036, 18, 37.26203703703703),
    ("empty draw", None, 1236, 1236, 200, 1036, 19, 37.26203703703703),
    ("one bit into r10", "KeyPoolExhaustedError", 1236, 1236, 200, 1036, 19, 37.26203703703703),
    ("drain unreserved", None, 200, 200, 200, 0, 20, 37.26203703703703),
    ("draw r10", None, 0, 0, 0, 0, 22, 51.65169753086419),
    ("one bit more", "KeyPoolExhaustedError", 0, 0, 0, 0, 22, 51.65169753086419),
    ("deposit 7", None, 7, 7, 0, 7, 23, 51.65169753086419),
    ("reserve r9 7", None, 7, 7, 7, 0, 23, 51.65169753086419),
    ("draw r9", None, 0, 0, 0, 0, 25, 0.03684210526315468),
    ("expire at 1000", None, 0, 0, 0, 0, 25, 0.03684210526315468),
]

PINNED_STATISTICS = {
    "bits_deposited": 5167,
    "bits_consumed": 4823,
    "bits_expired": 344,
    "deposits": 4,
    "reservations_granted": 10,
    "reservations_denied": 1,
    "reservations_released": 1,
    "bits_released": 2000,
    "starved_epochs": 0,
}

PINNED_DRAWN_SHA256 = "95da45ba7aac3480ee5d9aae3d8142a9903faa48770e926a6bdd11f06d0a9f5f"


def test_the_store_script_is_pinned():
    script = run_script()
    assert script.rows == PINNED_ROWS
    assert dataclasses.asdict(script.store.statistics) == PINNED_STATISTICS
    assert script.drawn.hexdigest() == PINNED_DRAWN_SHA256
