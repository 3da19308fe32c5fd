"""Tests for the deterministic fault plane and the disruption-tolerant
netkms stack (tests/faults + netkms leases/retry/drain).

The centrepiece is the pinned chaos soak, the swarm's scripted regression
(``tests/test_swarm.py`` draws such schedules at random): a fault schedule
that guarantees at least one connection drop mid-CONSUME, one server stall
past the client's request timeout, and one lease-expiry reap — and the
contract that survives it is the strong one: every requested key is served
exactly once, no two keys overlap, the order-independent served digest
equals the fault-free run's, and every reaped bit reconciles with the
store's own released-bits ledger (no reservation leak).
"""

import asyncio
import hashlib
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
    STALL,
    TRUNCATE,
    FaultAction,
    FaultPlane,
    FaultyConnector,
    stall_hook,
)
from repro.kms.store import KeyStore
from repro.netkms import protocol
from repro.netkms.client import NetworkKmsClient
from repro.netkms import resilient
from repro.netkms.resilient import ResilientKmsClient
from repro.netkms.server import LEASE_SECONDS, NetworkKmsServer
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.oracles.full_scan_reaper import reap_at
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


def chunk_digest(chunks):
    """The same order-independent digest the server metrics compute."""
    rollup = hashlib.sha256()
    for digest in sorted(hashlib.sha256(c).digest() for c in chunks):
        rollup.update(digest)
    return rollup.hexdigest()


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


# --------------------------------------------------------------------------- #
# The pinned chaos soak
# --------------------------------------------------------------------------- #

KEY_BITS = 256
MAIN_KEYS = 6
#: Past the client's 1 s request timeout.
STALL_SECONDS = 1.2


def chaos_soak(faulted, runner=run_virtual):
    """One full soak run; returns everything the assertions need.

    The fault schedule is *scripted*, so each required scenario is pinned:

    * main-client tx op 4 is the CONSUME of its second key — DROP_AFTER
      cuts the connection with the request already flushed (the server
      consumes; the reply is lost; the retry must hit the replay cache);
    * server request op 8 stalls 1.2 s, past the client's 1 s request
      timeout (the client must time out, reconnect, and retry);
    * the laggard client's reservation is left un-consumed and reaped as
      lapsed, by a reap at a time past its lease (reaping must return the
      bits, and the laggard must recover by re-reserving).

    ``runner`` runs the soak: on the virtual-time loop by default, where
    every timeout, stall and backoff runs in loop time and costs no wall
    time, or on asyncio's default loop over TCP (``asyncio.run``), where
    the stall costs 1.2 s.
    """

    async def scenario():
        store = make_store(1 << 15)
        plane = ScriptedPlane(
            DeterministicRNG(2026),
            {
                (SITE_CLIENT_TX, 4): FaultAction(DROP_AFTER),
                (SITE_SERVER_REQUEST, 8): FaultAction(STALL, delay_seconds=STALL_SECONDS),
            },
        )
        server = NetworkKmsServer(
            {PAIR: store}, port=0, request_hook=stall_hook(plane) if faulted else None
        )
        await server.start()
        delivered = []
        try:
            laggard = NetworkKmsClient("127.0.0.1", server.port)
            await laggard.connect()
            handle = await laggard.reserve(PAIR, KEY_BITS)

            main = ResilientKmsClient(
                "127.0.0.1",
                server.port,
                rng=DeterministicRNG(2026),
                connector=FaultyConnector(plane) if faulted else None,
            )
            for _ in range(MAIN_KEYS):
                key = await main.get_key(PAIR, KEY_BITS)
                delivered.append(key.key_bytes)
            await main.close()

            # The laggard outlives its lease; reaping takes the bits back.
            reap_at(server, asyncio.get_running_loop().time() + LEASE_SECONDS + 1.0)
            with pytest.raises(protocol.ServerError) as excinfo:
                await laggard.consume(handle)
            assert excinfo.value.code == protocol.ERR_UNKNOWN_RESERVATION
            recovered = await laggard.get_key(PAIR, KEY_BITS)
            delivered.append(recovered.key_bytes)
            await laggard.close()
            return delivered, store, server.metrics, main.stats
        finally:
            await server.stop()

    return runner(scenario())


class TestChaosSoak:
    def test_exactly_once_with_digest_equal_to_fault_free_run(self):
        faulted_keys, faulted_store, metrics, stats = chaos_soak(faulted=True)
        clean_keys, clean_store, clean_metrics, _ = chaos_soak(faulted=False)

        # Every requested key arrived, exactly once, in both runs.
        assert len(faulted_keys) == len(clean_keys) == MAIN_KEYS + 1
        counters = [
            word
            for chunk in faulted_keys
            for (word,) in struct.iter_unpack(">Q", chunk)
        ]
        assert len(counters) == len(set(counters)), "overlapping key material"

        # Faults may change timing, never key material: the client-side and
        # server-side digests match the fault-free run.
        assert chunk_digest(faulted_keys) == chunk_digest(clean_keys)
        assert metrics.served_digest() == clean_metrics.served_digest()

        # The pinned scenarios actually happened.
        assert metrics.consume_replays >= 1, "no drop-mid-consume was absorbed"
        assert stats.timeouts >= 1, "no stall outlived the client timeout"
        assert stats.reconnects >= 1
        assert metrics.reaped_by_reason.get("lease-expired", 0) >= 1

        # No reservation leak, faulted or not: reaped bits reconcile with
        # the stores' own released-bits ledger, and nothing stays reserved.
        for store, report in (
            (faulted_store, metrics),
            (clean_store, clean_metrics),
        ):
            assert report.reaped_bits == store.statistics.bits_released
            assert store.reserved_bits == 0

    def test_recoveries_are_counted_and_timed(self):
        _, _, _, stats = chaos_soak(faulted=True)
        assert stats.retries >= 1
        assert stats.recovery_seconds.count, "recoveries must be measured"
        assert stats.recovery_seconds.low >= 0

    def test_the_virtual_loop_replays_the_soak_and_tcp_serves_the_same_key(self):
        """Two runs on the virtual loop agree on everything the retry loop
        recorded, recovery times included, and serve what the same soak
        serves over TCP on asyncio's default loop in wall time."""
        _, _, first_metrics, first_stats = chaos_soak(faulted=True)
        _, _, second_metrics, second_stats = chaos_soak(faulted=True)
        tcp_keys, _, tcp_metrics, _ = chaos_soak(faulted=True, runner=asyncio.run)
        assert first_stats == second_stats
        assert first_stats.recovery_seconds.count
        assert first_metrics.served_digest() == second_metrics.served_digest()
        assert first_metrics.served_digest() == tcp_metrics.served_digest()
        assert len(tcp_keys) == MAIN_KEYS + 1
