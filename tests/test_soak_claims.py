"""The service soaks' claims, checked as rows over seeds.

The paper's network has been "up and steadily operational" since December
2002 and is tested against eavesdropping: here that is a key service run
for simulated hours through a link cut and an eavesdropper (E15), a client
fleet drawing key through injected network faults (E18), custody relay
across a flapping access link (E19) and a zoned metro (E20).  Each row is a
:class:`~tests.test_paper_claims.Claim` whose statistic takes a seed; the
seed picks the mesh's and the service's random streams (and, for E18, the
fault plane's and the clients').  A row holds when its statistic lands in
its band at **every** seed: these are invariants, not estimates, so one
seed out of band is a failure, not noise.  Runs are cached per seed, so
the rows that read one run pay for it once.

Nothing here is timed.  E20's sub-linearity is a count of heap pops in
:mod:`repro.kms.indexing` per epoch, taken by a wrapper on the test side;
E21's ``kms.sched_overhead_s`` keeps the wall-clock figure.
"""

import asyncio
import functools
import heapq
import struct
import types
from unittest import mock

import pytest

from repro.eve.intercept_resend import InterceptResendAttack
from repro.kms import (
    AggregateProfile,
    KeyManagementService,
    KmsConfig,
    ReplenishmentConfig,
    TrafficWorkload,
    WorkloadProfile,
    build_metro_mesh,
)
from repro.kms import indexing
from repro.kms.store import KeyStore
from repro.netkms.resilient import ResilientKmsClient
from repro.netkms.server import NetworkKmsServer
from repro.network.relay import TrustedRelayNetwork
from repro.util.rng import DeterministicRNG
from tests.faults import (
    DELAY,
    DROP_AFTER,
    DROP_BEFORE,
    REFUSE,
    SITE_CLIENT_RX,
    SITE_CLIENT_TX,
    SITE_CONNECT,
    STALL,
    FaultPlane,
    FaultyConnector,
)
from tests.test_faults import counter_material
from tests.test_paper_claims import HOLDS, INF, Claim, _in_band
from tests.virtual_loop import run_virtual

SEEDS = tuple(range(8))
#: E20's count is exact, so two seeds show it is not one run's accident.
COUNT_SEEDS = SEEDS[:2]


# --------------------------------------------------------------------------- #
# E15: continuous operation through a link cut and an eavesdropper
# --------------------------------------------------------------------------- #

#: Half a simulated hour.  Eve arrives at the half-way mark, and a link is
#: flagged by the first epoch that distills on it afterwards; an idle link
#: is never distilled, so Eve on it is never seen (and taps nothing).  At
#: 0.25 h two bursty seeds of eight ran no such epoch, at 0.5 h one (seed 5).
E15_HOURS = 0.5
E15_EPOCH_SECONDS = 120.0
E15_PROFILES = ("poisson", "bursty")
EAVESDROPPED = ("relay-2", "relay-3")


@functools.lru_cache(maxsize=None)
def kms_soak(seed, profile):
    """A 5+4 mesh serving 10 gateway pairs; a DoS cuts relay-0--relay-1 a
    quarter in, and intercept-resend Eve taps relay-2--relay-3 half-way.
    Returns the report and whether an epoch distilled on Eve's link after
    she arrived."""
    relays = TrustedRelayNetwork.for_mesh(n_endpoints=5, n_relays=4, rng=DeterministicRNG(seed))
    shape = WorkloadProfile.poisson(120.0) if profile == "poisson" else WorkloadProfile.bursty(300.0)
    rng = DeterministicRNG(seed)
    service = KeyManagementService(
        relays,
        KmsConfig(replenishment=ReplenishmentConfig(epoch_seconds=E15_EPOCH_SECONDS)),
        workload=TrafficWorkload(shape, rng.fork_labeled("bench-workload")),
        rng=rng,
    )
    horizon = E15_HOURS * 3600.0
    service.schedule_link_cut(horizon * 0.25, "relay-0", "relay-1")
    service.schedule_attack(horizon * 0.5, *EAVESDROPPED, InterceptResendAttack(1.0))
    report = service.serve(hours=E15_HOURS)
    distilled_after = any(
        epoch.epoch_index * E15_EPOCH_SECONDS >= horizon * 0.5
        and EAVESDROPPED in epoch.dispatched
        for epoch in service.replenisher.reports
    )
    return report, distilled_after


def _e15_rows(profile):
    def soak(seed):
        return kms_soak(seed, profile)[0]

    def flagged_once_distilled(seed):
        report, distilled_after = kms_soak(seed, profile)
        return (EAVESDROPPED in report.eavesdropped_links) == distilled_after

    return [
        Claim(f"E15 {profile}: every demand ends completed, timed out, failed or pending", HOLDS,
              lambda seed: soak(seed).completion_accounted, SEEDS),
        Claim(f"E15 {profile}: rekeys complete", (1, INF),
              lambda seed: soak(seed).rekeys_completed, SEEDS),
        Claim(f"E15 {profile}: keys are delivered", (1, INF),
              lambda seed: soak(seed).delivered_keys, SEEDS),
        Claim(f"E15 {profile}: the eavesdropped link is flagged once it distills again", HOLDS,
              flagged_once_distilled, SEEDS),
        Claim(f"E15 {profile}: rekey latency p50 <= p99", HOLDS,
              lambda seed: soak(seed).rekey_latency_p50_seconds
              <= soak(seed).rekey_latency_p99_seconds, SEEDS),
    ]


# --------------------------------------------------------------------------- #
# E18: a client fleet through network faults
# --------------------------------------------------------------------------- #

E18_REQUESTS = 48
E18_BITS = 512
E18_CLIENTS = 4
E18_PAIR = ("sae-a", "sae-b")
#: Per-operation fault probabilities per site, by intensity.
FAULT_LEVELS = {
    "none": {},
    "mild": {
        SITE_CONNECT: {REFUSE: 0.02},
        SITE_CLIENT_TX: {DROP_BEFORE: 0.01, DROP_AFTER: 0.01},
        SITE_CLIENT_RX: {DROP_BEFORE: 0.01, DELAY: 0.05},
    },
    "harsh": {
        SITE_CONNECT: {REFUSE: 0.08},
        SITE_CLIENT_TX: {DROP_BEFORE: 0.04, DROP_AFTER: 0.04, STALL: 0.03},
        SITE_CLIENT_RX: {DROP_BEFORE: 0.04, DELAY: 0.10},
    },
}
#: A stalled request reaches the server after the client's 1 s request
#: timeout, so each one forces a timeout, a reconnect and a retry; on the
#: virtual loop they cost nothing.
STALL_RANGE = (1.5, 2.5)


def words(chunks):
    return [word for chunk in chunks for (word,) in struct.iter_unpack(">Q", chunk)]


async def draw_fleet(port, plan, bits, seed, plane=None):
    """One resilient client per ``(pair, keys)`` of ``plan``, all drawing
    ``bits``-bit keys concurrently, through ``plane`` if given; returns each
    client's keys and the clients."""
    clients = [
        ResilientKmsClient(
            "127.0.0.1",
            port,
            client_id=f"sae-{index}",
            rng=DeterministicRNG(seed).fork_labeled(f"sae/{index}"),
            connector=FaultyConnector(plane) if plane is not None else None,
        )
        for index in range(len(plan))
    ]

    async def one(client, pair, count):
        keys = [(await client.get_key(pair, bits)).key_bytes for _ in range(count)]
        await client.close()
        return keys

    draws = (one(client, pair, count) for client, (pair, count) in zip(clients, plan))
    return await asyncio.gather(*draws), clients


@functools.lru_cache(maxsize=None)
def chaos_level(seed, level):
    """One fault level: the fleet draws every bit of a store of distinct 64-bit
    counter words, so any double serve is exactly visible."""
    total = E18_REQUESTS * E18_BITS
    store = KeyStore(E18_PAIR, capacity_bits=2 * total, low_water_bits=0, high_water_bits=total)
    store.deposit(counter_material(total))
    plane = FaultPlane(
        DeterministicRNG(seed), rates=FAULT_LEVELS[level], stall_range=STALL_RANGE
    )
    faulted = level != "none"

    async def scenario():
        server = NetworkKmsServer({E18_PAIR: store})
        await server.start()
        try:
            plan = [(E18_PAIR, E18_REQUESTS // E18_CLIENTS)] * E18_CLIENTS
            keys, _clients = await draw_fleet(
                server.port, plan, E18_BITS, seed, plane if faulted else None
            )
        finally:
            await server.stop()
        return [key for client_keys in keys for key in client_keys], server.metrics

    delivered, metrics = run_virtual(scenario())
    return types.SimpleNamespace(
        delivered=delivered,
        words=words(delivered),
        digest=metrics.served_digest(),
        reaped_bits=metrics.reaped_bits,
        released_bits=store.statistics.bits_released,
        reserved_bits=store.reserved_bits,
        injections=plane.stats.injections,
    )


def _e18_rows(level):
    def run(seed):
        return chaos_level(seed, level)

    return [
        Claim(f"E18 {level}: every request is answered once", (E18_REQUESTS, E18_REQUESTS),
              lambda seed: len(run(seed).delivered), SEEDS),
        Claim(f"E18 {level}: no 64-bit word is served twice", HOLDS,
              lambda seed: len(run(seed).words) == len(set(run(seed).words)), SEEDS),
        Claim(f"E18 {level}: the served digest is the fault-free one", HOLDS,
              lambda seed: run(seed).digest == chaos_level(seed, "none").digest, SEEDS),
        Claim(f"E18 {level}: reaped bits equal the store's released bits", HOLDS,
              lambda seed: run(seed).reaped_bits == run(seed).released_bits, SEEDS),
        Claim(f"E18 {level}: nothing is left reserved", (0, 0),
              lambda seed: run(seed).reserved_bits, SEEDS),
    ]


# --------------------------------------------------------------------------- #
# E19: custody relay across a flapping access link
# --------------------------------------------------------------------------- #

E19_HOURS = 0.5
FLAP_PERIOD = 900.0
FLAP_OUTAGE = 600.0
#: Parked bundles outlive every outage.
E19_TTL_SECONDS = 4000.0


@functools.lru_cache(maxsize=None)
def dtn_soak(seed, custody, policy="scheduled", replay=0):
    """Endpoint-1's only access link is down 600 s of every 900 s all run;
    returns the report and the custody layer (``None`` without custody).
    ``replay`` only keys the cache, so a replay is a second, fresh run."""
    relays = TrustedRelayNetwork.for_mesh(
        n_endpoints=2, n_relays=3, rng=DeterministicRNG(seed), prefill_seconds=30.0
    )
    config = KmsConfig(
        gateway_pairs=(("endpoint-0", "endpoint-1"),),
        custody=custody,
        custody_ttl_seconds=E19_TTL_SECONDS,
        custody_policy=policy,
        replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1),
    )
    service = KeyManagementService(relays, config, rng=DeterministicRNG(seed))
    horizon = E19_HOURS * 3600.0
    for at in range(100, int(horizon), int(FLAP_PERIOD)):
        service.schedule_link_cut(float(at), "endpoint-1", "relay-1")
        if at + FLAP_OUTAGE < horizon:
            service.schedule_link_restore(at + FLAP_OUTAGE, "endpoint-1", "relay-1")
    return service.serve(hours=E19_HOURS), service.custody


def _e19_rows(policy):
    def report(seed):
        return dtn_soak(seed, True, policy)[0]

    def custody(seed):
        return dtn_soak(seed, True, policy)[1]

    return [
        Claim(f"E19 {policy}: custody leaves no transport failed", (0, 0),
              lambda seed: report(seed).transports_failed, SEEDS),
        Claim(f"E19 {policy}: the flaps park transports", (1, INF),
              lambda seed: report(seed).transports_parked, SEEDS),
        Claim(f"E19 {policy}: parked key is delivered", (1, INF),
              lambda seed: report(seed).custody_delivered, SEEDS),
        Claim(f"E19 {policy}: custody holds key while the link is down", (1, INF),
              lambda seed: report(seed).custody_occupancy_peak_bits, SEEDS),
        Claim(f"E19 {policy}: every demand and every bundle is accounted for", HOLDS,
              lambda seed: report(seed).completion_accounted and report(seed).custody_accounted
              and custody(seed).conservation_fault() is None, SEEDS),
        # The DTN trade-off triple: delivery ratio, latency and overhead.
        Claim(f"E19 {policy}: delivery ratio (delivered / submitted)", (0.25, 1),
              lambda seed: report(seed).custody_delivered / report(seed).custody_submitted, SEEDS),
        Claim(f"E19 {policy}: delivery latency p50 <= p99 <= TTL", HOLDS,
              lambda seed: 0 <= custody(seed).delivery_latency.percentile(50)
              <= custody(seed).delivery_latency.percentile(99) <= E19_TTL_SECONDS, SEEDS),
        Claim(f"E19 {policy}: custody copies or moves bundles", (1, INF),
              lambda seed: custody(seed).metrics.copies_made + custody(seed).metrics.copy_moves,
              SEEDS),
    ]


def _same_delivered_key(seed):
    first, second = dtn_soak(seed, True)[0], dtn_soak(seed, True, replay=1)[0]
    return (first.delivered_digest, first.custody_delivered_digest) == (
        second.delivered_digest,
        second.custody_delivered_digest,
    )


# --------------------------------------------------------------------------- #
# E20: the zoned metro
# --------------------------------------------------------------------------- #

E20_HOURS = 0.25
E20_ZONES = 4
#: Endpoints per zone: C(8, 2) = 28 and C(16, 2) = 120 consumer pairs.
E20_LEVELS = (2, 4)
TOTAL_TUNNELS = 800


def _metro(seed, endpoints_per_zone):
    relays, plan = build_metro_mesh(
        endpoints_per_zone=endpoints_per_zone,
        relays_per_zone=3,
        rng=DeterministicRNG(seed),
        prefill_seconds=240.0,
        workers=1,
    )
    n_endpoints = E20_ZONES * endpoints_per_zone
    n_pairs = n_endpoints * (n_endpoints - 1) // 2
    config = (
        KmsConfig(
            replenishment=ReplenishmentConfig(epoch_seconds=300.0),
            store_high_water_bits=4_096,
            store_low_water_bits=2_048,
            transport_key_bits=2_048,
        )
        .with_zones(plan)
        .with_workload(
            AggregateProfile.poisson(
                tunnels=max(TOTAL_TUNNELS // n_pairs, 1), mean_interval_seconds=3_600.0
            )
        )
    )
    return n_pairs, KeyManagementService(relays, config, rng=DeterministicRNG(seed))


@functools.lru_cache(maxsize=None)
def metro_soak(seed, endpoints_per_zone):
    """``(pairs, report, heap pops per epoch)`` of one metro soak; the pops
    are counted by a wrapper around ``heapq`` as :mod:`repro.kms.indexing`
    sees it, so nothing in the service counts them."""
    n_pairs, service = _metro(seed, endpoints_per_zone)
    pops = [0]

    def heappop(heap):
        pops[0] += 1
        return heapq.heappop(heap)

    counting = types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop)
    with mock.patch.object(indexing, "heapq", counting):
        report = service.serve(hours=E20_HOURS)
    return n_pairs, report, pops[0] / report.epochs_run


def _pop_growth_over_pair_growth(seed):
    (small_pairs, _, small_pops), (big_pairs, _, big_pops) = (
        metro_soak(seed, level) for level in E20_LEVELS
    )
    return (big_pops / small_pops) / (big_pairs / small_pairs)


def _e20_rows(level):
    def report(seed):
        return metro_soak(seed, level)[1]

    return [
        Claim(f"E20 {level} per zone: every demand is accounted for", HOLDS,
              lambda seed: report(seed).completion_accounted, SEEDS),
        Claim(f"E20 {level} per zone: keys are delivered", (1, INF),
              lambda seed: report(seed).delivered_keys, SEEDS),
        Claim(f"E20 {level} per zone: the metro runs four zones", (E20_ZONES, E20_ZONES),
              lambda seed: report(seed).zones, SEEDS),
    ]


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #

ROWS = [
    *(row for profile in E15_PROFILES for row in _e15_rows(profile)),
    *(row for level in FAULT_LEVELS for row in _e18_rows(level)),
    Claim("E18 harsh: the harsh level injects faults", (1, INF),
          lambda seed: chaos_level(seed, "harsh").injections, SEEDS),
    Claim("E19 no custody: the flapping link starves transports", (1, INF),
          lambda seed: dtn_soak(seed, False)[0].transports_failed, SEEDS),
    Claim("E19 no custody: nothing is parked", (0, 0),
          lambda seed: dtn_soak(seed, False)[0].transports_parked, SEEDS),
    *(row for policy in ("scheduled", "epidemic") for row in _e19_rows(policy)),
    Claim("E19 scheduled: a replay on the same seed delivers the same key", HOLDS,
          _same_delivered_key, SEEDS),
    *(row for level in E20_LEVELS for row in _e20_rows(level)),
    # Recorded at seeds 0-1: pops per epoch grow ~1.8x for 4.3x the pairs.
    Claim("E20: heap pops per epoch grow under half as fast as the pair count", (0, 0.499),
          _pop_growth_over_pair_growth, COUNT_SEEDS),
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.claim)
def test_soak_claim(row):
    assert len(row.seeds) >= len(COUNT_SEEDS) and row.alpha is None
    misses = {}
    for seed in row.seeds:
        value = row.statistic(seed)
        if not _in_band(value, row.band):
            misses[seed] = value
    assert not misses, f"{row.claim}: outside {row.band} at seed(s) {misses}"
