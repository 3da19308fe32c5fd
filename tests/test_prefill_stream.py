"""The sequential prefill pad stream: pinned, held to the per-byte draw, and
counted.

``TrustedRelayNetwork.run_links_for(seconds)`` with ``workers=None`` banks
every usable link's pad from the network's own Mersenne Twister, in
``network.links()`` order.  That stream is what ``QKDSystem.mesh()``,
``QKDSystem.metro()`` and E21's ``kms_soak`` prefill with.  It is drawn
once per link; these tests pin what it banks, hold the one draw to the
per-byte loop it replaced (bytes *and* generator state), and count the
draws so a per-byte loop cannot come back unnoticed.  The last class holds
the rule that a prefill or refill duration is finite and non-negative.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import QKDSystem
from repro.network.relay import TrustedRelayNetwork, sequential_pad_material
from repro.util.rng import DeterministicRNG

#: sha256 over every link's banked pad in ``network.links()`` order, and the
#: relay RNG's next ``getrandbits(64)`` after the prefill.  Recorded on the
#: per-byte loop, before the prefill became one draw per link.
PINNED_KMS_SOAK_PREFILL = (
    "e4cb0acacf7b017b4644d24c602b811d098e1a5c66063e08b538b5bea9d5282b",
    17896888517301618123,
)
PINNED_DEFAULT_MESH_PREFILL = (
    "a7de48d34384c7f11293c168012febe28fb56973b036562d7886f0cb6d915381",
    10218921609165206627,
)


def kms_soak_metro(prefill_seconds: float = 240.0):
    """The mesh E21's ``kms_soak`` builds."""
    return QKDSystem(seed=2003, prefill_seconds=prefill_seconds).metro(
        n_zones=4, endpoints_per_zone=5, relays_per_zone=3
    )


def prefill_pin(relays: TrustedRelayNetwork):
    digest = hashlib.sha256()
    for edge in relays.network.links():
        pad = relays.pad_for(edge.node_a, edge.node_b)
        digest.update(pad.peek(pad.available_bytes))
    return digest.hexdigest(), relays.rng.getrandbits(64)


class TestPinnedPrefill:
    def test_kms_soak_metro(self):
        assert prefill_pin(kms_soak_metro().relays) == PINNED_KMS_SOAK_PREFILL

    def test_default_mesh(self):
        assert prefill_pin(QKDSystem(seed=2003).mesh().relays) == PINNED_DEFAULT_MESH_PREFILL


def per_byte(rng: DeterministicRNG, n_bytes: int) -> bytes:
    """The reference: one 8-bit draw per pad byte."""
    return bytes(rng.getrandbits(8) for _ in range(n_bytes))


def assert_same_draw(seed: int, n_bytes: int, before: int, after: int) -> None:
    """The one draw against the per-byte loop on two generators of one seed,
    each taking ``before`` bits first and ``after`` bits last (0: none)."""
    bulk, reference = DeterministicRNG(seed), DeterministicRNG(seed)
    assert bulk.getrandbits(before) == reference.getrandbits(before)
    assert sequential_pad_material(bulk, n_bytes) == per_byte(reference, n_bytes)
    assert bulk._random.getstate() == reference._random.getstate()
    assert bulk.getrandbits(after) == reference.getrandbits(after)
    assert bulk._random.getstate() == reference._random.getstate()


class TestOneDrawIsThePerByteLoop:
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        n_bytes=st.integers(min_value=1, max_value=5_000),
        before=st.sampled_from([0, 1, 8, 31, 32, 33, 64, 1_000]),
        after=st.sampled_from([0, 1, 8, 31, 32, 33, 64, 1_000]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_and_state(self, seed, n_bytes, before, after):
        assert_same_draw(seed, n_bytes, before, after)

    def test_one_megabyte(self):
        assert_same_draw(2003, 1 << 20, before=8, after=64)


class TestOneDrawPerLink:
    def count_draws(self, monkeypatch, build):
        calls = []
        draw = DeterministicRNG.getrandbits

        def counting(rng, n):
            calls.append(n)
            return draw(rng, n)

        with monkeypatch.context() as patch:
            patch.setattr(DeterministicRNG, "getrandbits", counting)
            result = build()
        return result, len(calls)

    def test_kms_soak_metro_prefill_is_one_draw_per_link(self, monkeypatch):
        mesh, prefilled = self.count_draws(monkeypatch, kms_soak_metro)
        _, bare = self.count_draws(monkeypatch, lambda: kms_soak_metro(0.0))
        relays = mesh.relays
        banked = [
            edge
            for edge in relays.network.links()
            if edge.usable and relays.pad_for(edge.node_a, edge.node_b).available_bytes
        ]
        assert len(banked) == 37
        assert prefilled - bare == len(banked)
        # 569 891 when each pad byte was its own draw; 185 while every link's
        # rate came from a seeded throwaway QKDLink (four draws each).
        assert prefilled == 37


def nonfinite_or_negative():
    return pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf, -1.0])


class TestPrefillDurationRule:
    @nonfinite_or_negative()
    def test_mesh_refuses(self, seconds):
        with pytest.raises(ValueError, match="finite and non-negative"):
            QKDSystem(seed=1, prefill_seconds=seconds).mesh()

    @nonfinite_or_negative()
    def test_metro_refuses(self, seconds):
        with pytest.raises(ValueError, match="finite and non-negative"):
            QKDSystem(seed=1, prefill_seconds=seconds).metro(n_zones=2)

    @nonfinite_or_negative()
    @pytest.mark.parametrize("workers", [None, 1])
    def test_run_links_for_refuses(self, seconds, workers):
        relays = QKDSystem(seed=1, prefill_seconds=0.0).mesh().relays
        with pytest.raises(ValueError, match="finite and non-negative"):
            relays.run_links_for(seconds, workers=workers)
        assert relays.network.links()
        for edge in relays.network.links():
            assert relays.pairwise_key_available_bits(edge.node_a, edge.node_b) == 0

    def test_zero_means_no_prefill(self):
        relays = QKDSystem(seed=1, prefill_seconds=0.0).metro(n_zones=2).relays
        for edge in relays.network.links():
            assert relays.pairwise_key_available_bits(edge.node_a, edge.node_b) == 0
