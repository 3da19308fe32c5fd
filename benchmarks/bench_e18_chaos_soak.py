"""E18 (chaos soak) — goodput and recovery time under deterministic faults.

The robustness benchmark: fleets of
:class:`~repro.netkms.resilient.ResilientKmsClient` SAEs draw fixed-size
keys from a :class:`~repro.netkms.server.NetworkKmsServer` while a seeded
:class:`~repro.faults.FaultPlane` injects connection refusals, frame drops
(before *and* after the request got out), reply delays, and in-server
stalls at increasing intensities.  Each intensity level serves the same
request volume from identically refilled stores.

Always asserted — the disruption-tolerance contract from the chaos soak,
at bench scale:

* every requested key is delivered exactly once at every fault level (no
  overlap between any two delivered chunks of the counter material);
* the order-independent served digest is **identical across all fault
  levels including fault-free** — faults may cost time, never key
  material;
* the server's reaped-bits counter reconciles exactly with the stores'
  own released-bits ledger, and nothing is left reserved (no leak).

Reported per level: goodput (keys/s and kbit/s of delivered material),
recovery-time p50/p99 (wall seconds from a request's first failure to its
eventual success), retries, reconnects, timeouts, replays, and reaped
reservations.

Knobs for CI smoke runs: ``BENCH_E18_REQUESTS`` (total get_key calls per
level, default 120), ``BENCH_E18_BITS`` (key size, default 512),
``BENCH_E18_CLIENTS`` (fleet size, default 4).  With ``BENCH_JSON_DIR``
set the table lands in ``BENCH_bench_e18_chaos_soak.json`` for the
nightly trajectory.
"""

import asyncio
import struct
import time

from benchmarks.conftest import int_env, run_once
from repro.faults import (
    DELAY,
    DROP_AFTER,
    DROP_BEFORE,
    REFUSE,
    SITE_CLIENT_RX,
    SITE_CLIENT_TX,
    SITE_CONNECT,
    SITE_SERVER_REQUEST,
    STALL,
    FaultPlane,
    FaultyConnector,
    stall_hook,
)
from repro.kms.service import percentile
from repro.kms.store import KeyStore
from repro.netkms.resilient import ResilientKmsClient, RetryPolicy
from repro.netkms.server import NetworkKmsServer
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

REQUESTS = int_env("BENCH_E18_REQUESTS", 120, minimum=8)
BITS = int_env("BENCH_E18_BITS", 512, minimum=64)
N_CLIENTS = int_env("BENCH_E18_CLIENTS", 4, minimum=1)

PAIR = ("sae-a", "sae-b")
SEED = 2026

#: The fault sweep: per-operation probabilities per site, by intensity.
FAULT_LEVELS = {
    "none": None,
    "mild": {
        SITE_CONNECT: {REFUSE: 0.02},
        SITE_CLIENT_TX: {DROP_BEFORE: 0.01, DROP_AFTER: 0.01},
        SITE_CLIENT_RX: {DROP_BEFORE: 0.01, DELAY: 0.05},
    },
    "harsh": {
        SITE_CONNECT: {REFUSE: 0.08},
        SITE_CLIENT_TX: {DROP_BEFORE: 0.04, DROP_AFTER: 0.04},
        SITE_CLIENT_RX: {DROP_BEFORE: 0.04, DELAY: 0.10},
        SITE_SERVER_REQUEST: {STALL: 0.03},
    },
}


def build_store():
    """Counter material: any double-serve or overlap is exactly detectable."""
    total_bits = REQUESTS * BITS
    store = KeyStore(
        PAIR, capacity_bits=2 * total_bits, low_water_bits=0, high_water_bits=total_bits
    )
    material = b"".join(struct.pack(">Q", word) for word in range(total_bits // 64))
    store.deposit(BitString.from_bytes(material))
    return store


async def run_level(level_name, rates):
    store = build_store()
    plane = FaultPlane(
        DeterministicRNG(SEED),
        rates=rates or {},
        delay_range=(0.001, 0.01),
        stall_range=(0.3, 0.5),  # past the client's 0.2 s request timeout
    )
    faulted = rates is not None
    server = NetworkKmsServer(
        {PAIR: store},
        port=0,
        lease_seconds=30.0,
        request_hook=stall_hook(plane) if faulted else None,
    )
    await server.start()
    delivered = []
    clients = []
    try:
        share = [REQUESTS // N_CLIENTS] * N_CLIENTS
        for extra in range(REQUESTS % N_CLIENTS):
            share[extra] += 1

        async def one_client(index, count):
            client = ResilientKmsClient(
                "127.0.0.1",
                server.port,
                client_id=f"sae-{index}",
                rng=DeterministicRNG(SEED).fork_labeled(f"sae/{index}"),
                connector=FaultyConnector(plane) if faulted else None,
                policy=RetryPolicy(
                    max_attempts=12,
                    base_backoff_seconds=0.002,
                    max_backoff_seconds=0.05,
                    request_timeout_seconds=0.2,
                ),
            )
            clients.append(client)
            keys = []
            for _ in range(count):
                keys.append((await client.get_key(PAIR, BITS)).key_bytes)
            await client.close()
            return keys

        started = time.perf_counter()
        per_client = await asyncio.gather(
            *(one_client(index, count) for index, count in enumerate(share))
        )
        wall = time.perf_counter() - started
        for keys in per_client:
            delivered.extend(keys)
    finally:
        await server.stop()

    recoveries = [t for c in clients for t in c.stats.recovery_seconds]
    totals = {
        "wall": wall,
        "recoveries": recoveries,
        "retries": sum(c.stats.retries for c in clients),
        "reconnects": sum(c.stats.reconnects for c in clients),
        "timeouts": sum(c.stats.timeouts for c in clients),
    }
    return delivered, store, server.metrics.report(), plane, totals


def test_e18_chaos_soak(benchmark, table):
    def experiment():
        return {
            name: asyncio.run(run_level(name, rates))
            for name, rates in FAULT_LEVELS.items()
        }

    results = run_once(benchmark, experiment)

    rows = []
    for name, (delivered, _store, report, plane, totals) in results.items():
        recoveries = totals["recoveries"]
        rows.append(
            [
                name,
                plane.stats.injections,
                f"{len(delivered) / totals['wall']:.0f}",
                f"{len(delivered) * BITS / totals['wall'] / 1e3:.0f}",
                f"{percentile(recoveries, 50) * 1e3:.1f}" if recoveries else "-",
                f"{percentile(recoveries, 99) * 1e3:.1f}" if recoveries else "-",
                totals["retries"],
                totals["reconnects"],
                totals["timeouts"],
                report.consume_replays,
                report.reservations_reaped,
                report.served_digest[:12],
            ]
        )
    table(
        f"E18: chaos soak, {REQUESTS} x {BITS}-bit get_key across "
        f"{N_CLIENTS} resilient SAEs per fault level",
        [
            "faults",
            "injected",
            "keys/s",
            "kbit/s",
            "rec p50 ms",
            "rec p99 ms",
            "retries",
            "reconn",
            "timeouts",
            "replays",
            "reaped",
            "digest",
        ],
        rows,
    )

    digests = set()
    for name, (delivered, store, report, plane, _totals) in results.items():
        # Exactly once: every request answered, no two chunks overlap.
        assert len(delivered) == REQUESTS, f"{name}: lost or duplicated requests"
        counters = [
            word for chunk in delivered for (word,) in struct.iter_unpack(">Q", chunk)
        ]
        assert len(counters) == len(set(counters)), f"{name}: overlapping material"
        # No reservation leak: the reaper's ledger reconciles with the
        # store's, and nothing stays reserved after the run.
        assert report.reaped_bits == store.statistics.bits_released, name
        assert store.reserved_bits == 0, name
        digests.add(report.served_digest)
    # Faults cost time, never key material: one digest across the sweep.
    assert len(digests) == 1, "fault injection changed the served key material"
    harsh_plane = results["harsh"][3]
    assert harsh_plane.stats.injections >= 1, "the harsh level injected nothing"
