"""Tests for the deterministic fault plane and the disruption-tolerant
netkms stack (tests/faults + the netkms client's retry and reconnect).

The plane's decisions replay from their seed and index, a scripted action
beats the stochastic draw, a reply cut fails the request at once, a
resilient client is replayed its key on a new connection, and backoff
jitter only shortens the delay.  The pinned chaos soak, which drives all of
it through the key service's front end, is a fixed step list of the stack
state machine in ``tests/test_stack_machine.py``.
"""

import asyncio
import struct

import pytest

from tests.faults import (
    DROP_AFTER,
    DROP_BEFORE,
    REFUSE,
    SITE_CLIENT_RX,
    SITE_CLIENT_TX,
    SITE_CONNECT,
    SITE_SERVER_REQUEST,
    TRUNCATE,
    FaultAction,
    FaultPlane,
    FaultyConnector,
)
from repro.kms.store import KeyStore
from repro.netkms.client import NetworkKmsClient
from repro.netkms import resilient
from repro.netkms.resilient import ResilientKmsClient
from repro.netkms.server import NetworkKmsServer
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.virtual_loop import run_virtual

PAIR = ("alice", "bob")


def counter_material(bits):
    return BitString.from_bytes(
        b"".join(struct.pack(">Q", i) for i in range(bits // 64))
    )


def make_store(bits=1 << 15):
    store = KeyStore(PAIR, capacity_bits=max(bits, 1 << 20))
    store.deposit(counter_material(bits))
    return store


class ScriptedPlane(FaultPlane):
    """A fault plane with exact actions pinned to exact operation indices.

    ``script`` maps ``(site, op_index)`` to the action that operation gets,
    whatever the stochastic draw said; the draw still consumes that index's
    stream, so pinning an earlier operation never shifts later ones.
    """

    def __init__(self, rng, script, **kwargs):
        super().__init__(rng, **kwargs)
        self.script = dict(script)

    def _draw(self, site, stream):
        drawn = super()._draw(site, stream)
        return self.script.get((site, self.stats.ops_by_site[site] - 1), drawn)


# --------------------------------------------------------------------------- #
# The plane: determinism, scripting, stats
# --------------------------------------------------------------------------- #


class TestFaultPlane:
    RATES = {
        SITE_CLIENT_TX: {DROP_BEFORE: 0.2, TRUNCATE: 0.1},
        SITE_CONNECT: {REFUSE: 0.3},
    }

    def decisions(self, seed, n=40):
        plane = FaultPlane(DeterministicRNG(seed), rates=self.RATES)
        out = []
        for site in (SITE_CLIENT_TX, SITE_CONNECT):
            out.extend(plane.decide(site) for _ in range(n))
        return plane, out

    def test_same_seed_replays_identically(self):
        _, first = self.decisions(11)
        _, second = self.decisions(11)
        assert first == second
        assert any(a is not None for a in first)

    def test_different_seeds_diverge(self):
        _, first = self.decisions(11)
        _, second = self.decisions(12)
        assert first != second

    def test_decisions_are_index_aligned_across_interleavings(self):
        # Drawing sites in a different order must not change any site's
        # per-index decisions: each index has its own labeled stream.
        plane_a = FaultPlane(DeterministicRNG(5), rates=self.RATES)
        plane_b = FaultPlane(DeterministicRNG(5), rates=self.RATES)
        a = [plane_a.decide(SITE_CLIENT_TX) for _ in range(20)]
        [plane_a.decide(SITE_CONNECT) for _ in range(20)]
        [plane_b.decide(SITE_CONNECT) for _ in range(20)]
        b = [plane_b.decide(SITE_CLIENT_TX) for _ in range(20)]
        assert a == b

    def test_scripted_rule_beats_the_stochastic_draw(self):
        plane = ScriptedPlane(DeterministicRNG(0), {(SITE_CLIENT_TX, 2): FaultAction(DROP_AFTER)})
        decisions = [plane.decide(SITE_CLIENT_TX) for _ in range(4)]
        assert [d.kind if d else None for d in decisions] == [
            None,
            None,
            DROP_AFTER,
            None,
        ]
        assert plane.stats.injected_by_kind == {DROP_AFTER: 1}
        assert plane.stats.ops_by_site == {SITE_CLIENT_TX: 4}

    def test_unknown_sites_and_mismatched_kinds_rejected(self):
        plane = FaultPlane(DeterministicRNG(0))
        with pytest.raises(ValueError):
            plane.decide("not-a-site")
        with pytest.raises(ValueError):
            FaultPlane(rates={SITE_SERVER_REQUEST: {REFUSE: 0.5}})


# --------------------------------------------------------------------------- #
# The connector seam: a cut reply stream
# --------------------------------------------------------------------------- #


class TestFaultyConnector:
    def test_a_reply_cut_fails_the_request_and_leaves_the_client_disconnected(self):
        """Reply frame 1 (the first after WELCOME) is cut: the request it
        answered fails with ConnectionError at once — not after its timeout,
        by the virtual loop's clock — ``connected`` turns False, and the next
        request writes nothing."""
        plane = ScriptedPlane(DeterministicRNG(0), {(SITE_CLIENT_RX, 1): FaultAction(DROP_BEFORE)})

        async def scenario():
            store = make_store(2048)
            server = NetworkKmsServer({PAIR: store}, port=0)
            await server.start()
            try:
                client = NetworkKmsClient(
                    "127.0.0.1", server.port, request_timeout=2.0, connector=FaultyConnector(plane)
                )
                await client.connect()
                connected_before = client.connected
                started = asyncio.get_running_loop().time()
                with pytest.raises(ConnectionError):
                    await client.get_key(PAIR, bits=64)
                took = asyncio.get_running_loop().time() - started
                connected_after = client.connected
                writes = plane.stats.ops_by_site[SITE_CLIENT_TX]
                with pytest.raises(ConnectionError):
                    await client.get_key(PAIR, bits=64)
                rewrites = plane.stats.ops_by_site[SITE_CLIENT_TX] - writes
                await client.close()
                return connected_before, took, connected_after, rewrites, store, server.metrics
            finally:
                await server.stop()

        before, took, after, rewrites, store, metrics = run_virtual(scenario())
        assert before and not after
        assert took == 0.0
        assert rewrites == 0
        # The key was served before its reply was cut: lost, as documented.
        assert store.available_bits == 2048 - 64
        assert metrics.requests_by_kind == {"GetKey": 1}

    def test_a_resilient_client_is_replayed_its_key_on_a_new_connection(self):
        """Client tx op 2 is the first CONSUME: it reaches the server, which
        serves it, and the connection closes before the reply.  The retry
        arrives on a new connection under the same ``client_id`` and is
        answered from the replay cache."""
        plane = ScriptedPlane(DeterministicRNG(0), {(SITE_CLIENT_TX, 2): FaultAction(DROP_AFTER)})

        async def scenario():
            store = make_store(2048)
            server = NetworkKmsServer({PAIR: store}, port=0)
            await server.start()
            try:
                client = ResilientKmsClient(
                    "127.0.0.1",
                    server.port,
                    client_id="sae-r",
                    connector=FaultyConnector(plane),
                )
                key = await client.get_key(PAIR, 256)
                await client.close()
                return key, client.stats, store, server.metrics
            finally:
                await server.stop()

        key, stats, store, metrics = run_virtual(scenario())
        assert key.key_bytes == counter_material(2048).to_bytes()[:32]
        assert (stats.reconnects, stats.reservations_abandoned) == (1, 0)
        assert (metrics.keys_served, metrics.consume_replays) == (1, 1)
        assert store.available_bits == 2048 - 256 and store.reserved_bits == 0


# --------------------------------------------------------------------------- #
# Retry backoff
# --------------------------------------------------------------------------- #


class TestBackoff:
    def test_jitter_only_ever_shortens_the_delay(self):
        rng = DeterministicRNG(2)
        for attempt in range(1, 8):
            raw = min(
                resilient.BASE_BACKOFF_SECONDS * 2 ** (attempt - 1), resilient.MAX_BACKOFF_SECONDS
            )
            for _ in range(20):
                assert raw * 0.5 <= resilient.backoff(attempt, rng) <= raw

    def test_the_jitter_stream_is_deterministic_per_seed(self):
        first = [resilient.backoff(a, DeterministicRNG(9)) for a in range(1, 5)]
        second = [resilient.backoff(a, DeterministicRNG(9)) for a in range(1, 5)]
        assert first == second

