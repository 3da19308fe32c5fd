"""The whole stack under a seeded fault swarm.

In the manner of FoundationDB's simulation testing: a seed picks a whole
scenario, the stack runs it deterministically on simulated time, and the
checks are invariants that must hold whatever the scenario was.  Each seed
draws a :class:`Scenario`:

* a smoke-size **mesh** or 2-zone **metro**, a **demand mix** (Poisson,
  bursty, aggregate, or none, leaving every bit to the network),
  **custody** off or under either policy, store
  **sizing** (roomy, or a capacity equal to the high-water mark), an
  optional **key age** limit, and a **link schedule** for the service
  phase: cuts, restores and an intercept-resend eavesdropper;
* a **network phase** against the service's ``serve_network()`` front end on
  the virtual-time loop (:mod:`tests.virtual_loop`): a fleet of resilient
  clients drawing key from up to three pairs through a seeded fault plane
  (:mod:`tests.faults`: refusals, frame drops, reply delays, server stalls),
  reservations left to lapse, clients that disconnect holding a
  reservation, and a client that consumes ids it was never granted.

The checks, on every seed:

* every owner's ``conservation_fault()`` — the service raises after each
  epoch, the front end at ``stop()``, and the service is asked once more at
  the end;
* no 64-bit word of one pair is served twice;
* every demand ends exactly once (completed, timed out, failed or pending);
  every network request is answered exactly once, and nothing is served to
  a client that was not granted it;
* the network phase serves the same key, by digest, as the same seed's
  fault-free network phase.

A failing seed prints its scenario; pasted into a test named for the fault,
``check(Scenario(...))`` keeps it as a regression whatever the draw does
later.  The scripted chaos soak in ``tests/test_faults.py`` is one such
regression, written before the swarm.
"""

import asyncio
import random
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro import QKDSystem
from repro.eve.intercept_resend import InterceptResendAttack
from repro.kms import AggregateProfile, KmsConfig, ReplenishmentConfig, WorkloadProfile
from repro.netkms import NetworkKmsClient, ServerError, protocol
from repro.netkms.client import ReservationHandle
from repro.netkms.server import LEASE_SECONDS
from repro.util.rng import DeterministicRNG
from tests.faults import FaultPlane, stall_hook
from tests.test_soak_claims import FAULT_LEVELS, STALL_RANGE, draw_fleet
from tests.virtual_loop import run_virtual

SWARM_SEEDS = tuple(range(24))
EPOCH_SECONDS = 120.0
HOURS = 0.25
TRANSPORT_KEY_BITS = 2_048
#: Keys the fleet draws from one pair at most.
MAX_KEYS = 40


@dataclass(frozen=True)
class Scenario:
    seed: int
    #: ("mesh", endpoints, relays) or ("metro", zones, endpoints per zone).
    topology: Tuple[str, int, int]
    demand: str
    custody: Optional[str]
    #: Store capacity equal to its high-water mark, so a supply can overfill.
    tight_stores: bool
    key_age_seconds: Optional[float]
    #: (at, "cut" | "restore" | "eve", node, node), in the service phase.
    link_events: Tuple[Tuple[float, str, str, str], ...]
    fault_level: str
    clients: int
    key_bits: int
    lapses: int
    disconnects: int
    probes: int


def _system(topology, seed):
    kind, a, b = topology
    system = QKDSystem(seed=seed, prefill_seconds=30.0)
    if kind == "mesh":
        return system.mesh(n_endpoints=a, n_relays=b)
    return system.metro(n_zones=a, endpoints_per_zone=b, relays_per_zone=2)


def draw(seed):
    """The scenario seed ``seed`` picks."""
    pick = random.Random(seed)
    if pick.random() < 0.7:
        topology = ("mesh", pick.randint(2, 4), pick.randint(2, 4))
    else:
        topology = ("metro", 2, 2)
    links = sorted(tuple(sorted((e.node_a, e.node_b))) for e in _links(topology))
    horizon = HOURS * 3600.0
    events = []
    for _ in range(pick.randint(0, 3)):
        a, b = pick.choice(links)
        at = round(pick.uniform(0, horizon), 1)
        events.append((at, "cut", a, b))
        if pick.random() < 0.6:
            events.append((round(pick.uniform(at, horizon), 1), "restore", a, b))
    if pick.random() < 0.4:
        events.append((round(pick.uniform(0, horizon), 1), "eve", *pick.choice(links)))
    return Scenario(
        seed=seed,
        topology=topology,
        demand=pick.choice(("poisson", "bursty", "aggregate", "idle")),
        custody=pick.choice((None, None, "scheduled", "epidemic")),
        tight_stores=pick.random() < 0.4,
        key_age_seconds=pick.choice((None, None, 2 * EPOCH_SECONDS, 3.5 * EPOCH_SECONDS)),
        link_events=tuple(sorted(events)),
        fault_level=pick.choice(tuple(FAULT_LEVELS)),
        clients=pick.randint(2, 5),
        key_bits=64 * pick.choice((2, 4, 8)),
        lapses=pick.randint(0, 2),
        disconnects=pick.randint(0, 2),
        probes=pick.randint(0, 4),
    )


def _links(topology):
    return _system(topology, 0).relays.network.links()


def _config(scenario):
    demand = {
        "poisson": WorkloadProfile.poisson(300.0),
        "bursty": WorkloadProfile.bursty(600.0),
        "aggregate": AggregateProfile.poisson(tunnels=6, mean_interval_seconds=600.0),
        # No in-process rekey: every banked bit is left for the network, and
        # every store's reservation ids start from 1 there.
        "idle": WorkloadProfile.poisson(1e12),
    }[scenario.demand]
    sizing = {}
    if scenario.tight_stores:
        # Room for three and a half transport keys, all of it below high water.
        sizing = dict(store_capacity_bits=7_168, store_high_water_bits=7_168,
                      store_low_water_bits=4_096)
    custody = {}
    if scenario.custody is not None:
        custody = dict(custody=True, custody_policy=scenario.custody)
    return KmsConfig(
        replenishment=ReplenishmentConfig(epoch_seconds=EPOCH_SECONDS),
        transport_key_bits=TRANSPORT_KEY_BITS,
        max_key_age_seconds=scenario.key_age_seconds,
        **sizing,
        **custody,
    ).with_workload(demand)


def service_phase(scenario):
    """The service, served for the horizon through the link schedule."""
    service = _system(scenario.topology, scenario.seed).kms(_config(scenario))
    for at, what, a, b in scenario.link_events:
        if what == "cut":
            service.schedule_link_cut(at, a, b)
        elif what == "restore":
            service.schedule_link_restore(at, a, b)
        else:
            service.schedule_attack(at, a, b, InterceptResendAttack(1.0))
    report = service.serve(hours=HOURS)
    return service, report


def plan_draws(scenario, service):
    """Up to three pairs that hold key, and ``(pair, keys)`` per fleet
    client: each pair is drawn down to what it holds less what the lapsing
    and disconnecting clients (``pairs[i % len(pairs)]`` for the ``i``-th)
    hold on it, or by :data:`MAX_KEYS` keys."""
    holders = scenario.lapses + scenario.disconnects
    pairs = sorted(service.stores)
    random.Random(scenario.seed).shuffle(pairs)
    pairs = [p for p in pairs if service.stores[p].unreserved_bits >= scenario.key_bits * (holders + 1)]
    pairs = pairs[: min(3, scenario.clients)]
    plan = [[pairs[i % len(pairs)], 0] for i in range(scenario.clients)] if pairs else []
    for index, pair in enumerate(pairs):
        held = len(range(index, holders, len(pairs)))
        keys = min(service.stores[pair].unreserved_bits // scenario.key_bits - held, MAX_KEYS)
        sharing = [entry for entry in plan if entry[0] == pair]
        for i in range(keys):
            sharing[i % len(sharing)][1] += 1
    return pairs, [tuple(entry) for entry in plan]


async def network_phase(scenario, service, faulted):
    """Serve the fleet (and, when ``faulted``, the faults, lapses,
    disconnects and probes); returns what the checks read."""
    pairs, plan = plan_draws(scenario, service)
    plane = FaultPlane(
        DeterministicRNG(scenario.seed), rates=FAULT_LEVELS[scenario.fault_level],
        stall_range=STALL_RANGE,
    )
    server = service.serve_network()
    if faulted:
        server.request_hook = stall_hook(plane)
    refused = []

    async def lapse(index):
        pair = pairs[index % len(pairs)]
        async with NetworkKmsClient("127.0.0.1", server.port, client_id=f"lag-{index}") as client:
            handle = await client.reserve(pair, scenario.key_bits)
            await asyncio.sleep(LEASE_SECONDS + 1.0)
            try:
                await client.consume(handle)
            except ServerError as exc:
                refused.append(exc.code)
            else:
                refused.append("served after its lease")

    async def disconnect(index):
        client = NetworkKmsClient("127.0.0.1", server.port, client_id=f"gone-{index}")
        await client.connect()
        await client.reserve(pairs[index % len(pairs)], scenario.key_bits)
        await client.close()

    async def probe(index):
        """Counts ids it was never granted, on every pair."""
        async with NetworkKmsClient("127.0.0.1", server.port, client_id=f"probe-{index}") as client:
            for reservation_id in range(1, 6):
                await asyncio.sleep(0.01 * (index + 1))
                for pair in pairs:
                    try:
                        await client.consume(ReservationHandle(pair, reservation_id, 0))
                    except ServerError as exc:
                        refused.append(exc.code)
                    else:
                        refused.append("served")

    await server.start()
    try:
        extras = []
        if faulted and pairs:
            extras = [lapse(i) for i in range(scenario.lapses)]
            extras += [disconnect(i) for i in range(scenario.disconnects)]
            extras += [probe(i) for i in range(scenario.probes)]
        fleet = draw_fleet(
            server.port, plan, scenario.key_bits, scenario.seed, plane if faulted else None
        )
        (keys, _clients), *_ = await asyncio.gather(fleet, *extras)
    finally:
        await server.stop()
    return plan, keys, refused, server.metrics


def run_scenario(scenario):
    service, report = service_phase(scenario)
    plan, keys, refused, metrics = run_virtual(network_phase(scenario, service, faulted=True))
    assert service.conservation_fault() is None
    clean_service, _ = service_phase(scenario)
    _, _, _, clean = run_virtual(network_phase(scenario, clean_service, faulted=False))
    return report, plan, keys, refused, metrics, clean


def check(scenario):
    report, plan, keys, refused, metrics, clean = run_scenario(scenario)
    assert report.completion_accounted, "a demand ended more or less than once"
    served = {}
    for (pair, wanted), client_keys in zip(plan, keys):
        assert len(client_keys) == wanted, "a network request was lost or answered twice"
        served.setdefault(pair, []).extend(client_keys)
    assert metrics.keys_served == sum(wanted for _, wanted in plan)
    for pair, chunks in served.items():
        words = [word for chunk in chunks for (word,) in struct.iter_unpack(">Q", chunk)]
        assert len(words) == len(set(words)), f"{pair}: a 64-bit word was served twice"
    assert "served" not in refused, "a key reached a client not granted it"
    assert set(refused) <= {protocol.ERR_UNKNOWN_RESERVATION}, refused
    assert metrics.served_digest() == clean.served_digest(), "faults changed the served key"


@pytest.mark.timeout(30)
@pytest.mark.parametrize("seed", SWARM_SEEDS)
def test_swarm(seed):
    scenario = draw(seed)
    try:
        check(scenario)
    except BaseException as exc:
        raise AssertionError(f"swarm seed {seed} failed on\n  {scenario!r}") from exc
