"""The key service and its network front end, as one shrinking state machine.

:class:`StackMachine`'s ``@initialize`` draws a :class:`Scenario`
(:func:`pick_scenario`) and serves the service; its rules drive the
``serve_network()`` front end on :mod:`tests.virtual_loop`: in-process
connections that reserve, consume, get_key and release, lease lapses,
disconnects, a probe naming ids it was never granted, direct store steps,
and bursts of resilient clients through the fault plane (:mod:`tests.faults`).
Each step checks its outcome against the model, the invariants hold after
every step, and at teardown the front end drains and the steps replayed
with the fault plane off serve the same ``served_digest``.  Fixed step lists
through the same machine (:func:`play`) keep the harnesses it replaced: the
former swarm's 24 seeds (:func:`draw`), the former key-server machine's four
scripts and the pinned chaos soak, whose TCP run is the one test here that
crosses real sockets.
"""

import asyncio
import contextlib
import functools
import hashlib
import inspect
import random
import signal
import struct
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import QKDSystem
from repro.eve.intercept_resend import InterceptResendAttack
from repro.kms import AggregateProfile, KmsConfig, ReplenishmentConfig, WorkloadProfile
from repro.kms.store import KeyStoreExhaustedError, ReservationError
from repro.netkms import protocol
from repro.netkms.protocol import Consume, ConsumeOk, Error, GetKey, Hello, Release, ReleaseOk
from repro.netkms.protocol import Reserve, ReserveOk
from repro.netkms.server import LEASE_SECONDS, MAX_RESERVE_BITS, _Connection
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.faults import DROP_AFTER, SITE_CLIENT_TX, STALL, FaultAction, FaultPlane
from tests.test_faults import ScriptedPlane
from tests.test_soak_claims import FAULT_LEVELS, STALL_RANGE, draw_fleet
from tests.virtual_loop import VirtualLoop, close_loop

SWARM_SEEDS = tuple(range(24))
EPOCH_SECONDS = 120.0
HOURS = 0.25
#: The machine serves four epochs, enough for key to age past 240 s: serving
#: is most of an example's cost.
MACHINE_HOURS = 0.1
TRANSPORT_KEY_BITS = 2_048
#: Keys one swarm burst draws from one pair at most.
MAX_KEYS = 40
WORD = struct.Struct(">Q")
WORD_BITS = 8 * WORD.size
#: Connection slot -> HELLO client_id: slots 0 and 2 are one client, and
#: slot 3 is a probe that never reserves, so every id it names is foreign.
CLIENT_IDS = ("sae-a", "sae-b", "sae-a", "probe")
#: Deposited words count up from here, far from any word of the service's
#: key (a random word equals one with probability 2**-64).
COUNTER = 0xC0DE << 48
#: The clock steps, as fractions of the lease: short of it, to it, past it.
LAPSES = tuple(LEASE_SECONDS * f for f in (0.1, 0.4, 0.9, 1.0, 1.8))
#: A service phase takes under 0.2 s here: one running 5 s is hung.
HANG_SECONDS = 5.0


@dataclass(frozen=True)
class Scenario:
    seed: int
    #: ("mesh", endpoints, relays) or ("metro", zones, endpoints per zone).
    topology: Tuple[str, int, int]
    demand: str
    custody: Optional[str]
    tight_stores: bool
    key_age_seconds: Optional[float]
    #: (at, "cut" | "restore" | "eve", node, node), in the service phase.
    link_events: Tuple[Tuple[float, str, str, str], ...]
    #: A :data:`FAULT_LEVELS` key, or "chaos" for the :data:`CHAOS` faults.
    fault_level: str
    hours: float = HOURS


def _system(topology, seed):
    kind, a, b = topology
    system = QKDSystem(seed=seed, prefill_seconds=30.0)
    if kind == "mesh":
        return system.mesh(n_endpoints=a, n_relays=b)
    return system.metro(n_zones=a, endpoints_per_zone=b, relays_per_zone=2)


@functools.lru_cache(maxsize=None)
def links(topology):
    edges = _system(topology, 0).relays.network.links()
    return tuple(sorted(tuple(sorted((edge.node_a, edge.node_b))) for edge in edges))


def _config(scenario):
    demand = {
        "poisson": WorkloadProfile.poisson(300.0),
        "bursty": WorkloadProfile.bursty(600.0),
        "aggregate": AggregateProfile.poisson(tunnels=6, mean_interval_seconds=600.0),
        # No in-process rekey: every banked bit is left for the network, and
        # every store's reservation ids start from 1 there.
        "idle": WorkloadProfile.poisson(1e12),
    }[scenario.demand]
    options = {}
    if scenario.tight_stores:
        # Room for three and a half transport keys, all of it below high water.
        options.update(store_capacity_bits=7_168, store_high_water_bits=7_168,
                       store_low_water_bits=4_096)
    if scenario.custody is not None:
        options.update(custody=True, custody_policy=scenario.custody)
    return KmsConfig(
        replenishment=ReplenishmentConfig(epoch_seconds=EPOCH_SECONDS),
        transport_key_bits=TRANSPORT_KEY_BITS,
        max_key_age_seconds=scenario.key_age_seconds,
        **options,
    ).with_workload(demand)


@contextlib.contextmanager
def hang_guard(seconds=HANG_SECONDS):
    """Raise :class:`TimeoutError` in a body still running after ``seconds``,
    a failure Hypothesis can shrink (the test's watchdog ends a hung test
    unshrunk; it is re-armed here with what it had left)."""

    def hung(_signum, _frame):
        raise TimeoutError(f"the service phase ran past {seconds} s: a hang")

    watchdog, every = signal.getitimer(signal.ITIMER_REAL)
    previous, started = signal.signal(signal.SIGALRM, hung), time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if watchdog:
            left = watchdog - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3), every)


def service_phase(scenario):
    """The service, served through the link schedule."""
    service = _system(scenario.topology, scenario.seed).kms(_config(scenario))
    eve = functools.partial(service.schedule_attack, attack=InterceptResendAttack(1.0))
    schedule = {"cut": service.schedule_link_cut, "restore": service.schedule_link_restore,
                "eve": eve}
    for at, what, a, b in scenario.link_events:
        schedule[what](at, a, b)
    with hang_guard():
        service.serve(hours=scenario.hours)
    return service


def pick_scenario(choose, seed, hours):
    """The :class:`Scenario` ``choose(options)`` picks, one option a call: a
    seeded ``random.Random`` for the swarm seeds, Hypothesis for the machine."""
    topology = choose(TOPOLOGIES)
    tenths = range(int(hours * 36_000) + 1)
    events = []
    for _ in range(choose(range(4))):
        at, (a, b) = choose(tenths), choose(links(topology))
        events.append((at / 10, "cut", a, b))
        if choose((False, True)):
            events.append((choose(tenths[at:]) / 10, "restore", a, b))
    if choose((False, True)):
        events.append((choose(tenths) / 10, "eve", *choose(links(topology))))
    return Scenario(
        seed=seed,
        topology=topology,
        demand=choose(("idle", "poisson", "bursty", "aggregate")),
        custody=choose((None, "scheduled", "epidemic")),
        tight_stores=choose((False, True)),
        key_age_seconds=choose((None, 2 * EPOCH_SECONDS, 3.5 * EPOCH_SECONDS)),
        link_events=tuple(sorted(events)),
        fault_level=choose(tuple(FAULT_LEVELS)),
        hours=hours,
    )


@st.composite
def scenarios(draw):
    def choose(options):
        return draw(sampled(options))

    return pick_scenario(choose, draw(st.integers(0, 255)), MACHINE_HOURS)


sampled = functools.lru_cache(maxsize=None)(st.sampled_from)
TOPOLOGIES = tuple(("mesh", e, r) for e in (2, 3, 4) for r in (2, 3, 4)) + (("metro", 2, 2),)
PAIR, PICK = st.integers(0, 5), st.integers(0, 1 << 16)
#: The slots that reserve, and (with the probe) the ones that name ids.
SLOT, ANY_SLOT = st.integers(0, 2), st.integers(0, 3)
#: Request sizes in words; 0, and one word past the server's cap, are refused.
N_WORDS = st.integers(0, 12) | st.just(MAX_RESERVE_BITS // WORD_BITS + 1)


class RecordingTransport(protocol.FrameSplitter):
    """The transport a ``_Connection`` writes to: the frames it wrote."""

    closed = False

    def write(self, data):
        self.feed(bytes(data))

    def close(self):
        self.closed = True

    abort = close

    def pause_reading(self):
        pass

    resume_reading = pause_reading


def chunk_digest(chunks):
    """The order-independent digest the server's metrics compute."""
    rollup = hashlib.sha256()
    for digest in sorted(hashlib.sha256(c).digest() for c in chunks):
        rollup.update(digest)
    return rollup.hexdigest()


def recorded(step):
    """Log each call of a rule as ``(name, *args)``, for the replay."""
    names = list(inspect.signature(step).parameters)[1:]

    @functools.wraps(step)
    def run(self, *args, **kwargs):
        kwargs.update(zip(names, args))
        self.steps.append((step.__name__, *(kwargs[name] for name in names)))
        return step(self, **kwargs)

    return run


class StackMachine(RuleBasedStateMachine):
    def __init__(self, loop=None, faulted=True):
        super().__init__()
        self.loop = loop or VirtualLoop()
        #: ``False`` for the replay: each burst runs without the fault plane
        #: and then lasts what the faulted run's did (``pads``).
        self.faulted, self.pads = faulted, []
        self.steps, self.burst_seconds = [], []
        #: How far lease lapses have moved the server's clock past the loop's.
        self.skew = 0.0

    @initialize(scenario=scenarios())
    def serve(self, scenario):
        self.scenario = scenario
        self.service = service_phase(scenario)
        self.stores = self.service.stores
        self.pairs = sorted(self.stores)
        self.server = self.service.serve_network()
        self.loop.run_until_complete(self.server.start())
        loop_clock = self.server._now
        self.server._now = lambda: loop_clock() + self.skew
        if scenario.fault_level == "chaos":
            self.plane = ScriptedPlane(DeterministicRNG(2026), CHAOS)
        else:
            self.plane = FaultPlane(DeterministicRNG(scenario.seed), stall_range=STALL_RANGE,
                                    rates=FAULT_LEVELS[scenario.fault_level])
        #: Model: (pair, id) -> (slot, bits, lease deadline) per reservation
        #: a RESERVE granted and nobody has ended yet.
        self.held = {}
        #: (pair, id) -> (client_id, key bytes, when) per key served in-process.
        self.served = {}
        #: Every reservation a direct step was granted, and which are live.
        self.direct, self.live = [], set()
        self.words = {pair: set() for pair in self.pairs}
        self.delivered, self.recoveries = [], []
        self.keys_served = self.released_bits = self.next_word = self.request_id = 0
        self.connections = [None] * len(CLIENT_IDS)
        for slot in range(len(CLIENT_IDS)):
            self.connect(slot)

    def teardown(self):
        try:
            if sys.exc_info()[1] is None and hasattr(self, "server"):
                self.finish()
        finally:
            close_loop(self.loop)

    def finish(self):
        """Drain the front end (it raises on a leaked reservation); check."""
        for slot in range(len(CLIENT_IDS)):
            self.drop(slot)
        self.loop.run_until_complete(self.server.stop())
        self.every_owner_keeps_its_rule()
        digest = self.server.metrics.served_digest()
        assert chunk_digest(self.delivered) == digest, "a served key missed its client"
        if self.faulted and self.burst_seconds and self.scenario.fault_level != "none":
            clean = StackMachine(faulted=False)
            clean.pads = list(self.burst_seconds)
            play(self.scenario, *self.steps, machine=clean)
            assert clean.server.metrics.served_digest() == digest, "faults changed the served key"

    @property
    def clock(self):
        return self.server._now()

    def pair(self, index):
        return self.pairs[index % len(self.pairs)]

    def reserved(self, pair):
        held = sum(bits for (p, _), (_, bits, _) in self.held.items() if p == pair)
        return held + sum(self.direct[i].bits for i in self.live if self.direct[i].pair == pair)

    def connect(self, slot):
        connection, transport = _Connection(self.server), RecordingTransport()
        connection.connection_made(transport)
        hello = Hello(client_id=CLIENT_IDS[slot])
        connection.data_received(protocol.encode_frame(hello, protocol.FLOOR_VERSION))
        transport.next_frame()  # WELCOME
        assert connection.version == protocol.PROTOCOL_V4
        self.connections[slot] = (connection, transport)

    def drop(self, slot):
        if self.connections[slot] is not None:
            self.connections[slot][0].connection_lost(None)
            self.connections[slot] = None
            self.held = {key: entry for key, entry in self.held.items() if entry[0] != slot}

    def ask(self, slot, message):
        """Send ``message`` on ``slot``'s connection (a new one if the slot
        disconnected); its one reply."""
        if self.connections[slot] is None:
            self.connect(slot)
        connection, transport = self.connections[slot]
        self.request_id += 1
        message.request_id = self.request_id
        connection.data_received(protocol.encode_frame(message, connection.version))
        reply = protocol.decode_body(transport.next_frame(), connection.version)
        assert transport.next_frame() is None and not transport.closed
        assert reply.request_id == self.request_id
        return reply

    def lapse(self):
        """The clock moved, and the server reaped: so does the model."""
        now, retention = self.clock, self.server.replay_retention_seconds
        self.held = {key: entry for key, entry in self.held.items() if entry[2] > now}
        self.served = {key: entry for key, entry in self.served.items()
                       if entry[2] + retention > now}

    def candidates(self, slot, pick, pair_index):
        """A reservation for ``slot`` to name: one held (its own client's
        first) or served, on the next pair for an odd ``pair_index``; with
        neither, a low id."""
        client = CLIENT_IDS[slot]
        keys = sorted(self.held, key=lambda key: (CLIENT_IDS[self.held[key][0]] != client, key))
        keys += sorted(self.served)
        if not keys:
            return self.pair(pair_index), 1 + pick % 3
        pair, reservation_id = keys[pick % len(keys)]
        return self.pair(self.pairs.index(pair) + pair_index % 2), reservation_id

    def note_served(self, pair, key_bytes, client=True):
        served = [word for (word,) in WORD.iter_unpack(key_bytes)]
        assert self.words[pair].isdisjoint(served), f"{pair}: a 64-bit word was served twice"
        self.words[pair].update(served)
        if client:
            self.keys_served += 1
            self.delivered.append(key_bytes)

    def request(self, slot, message, ok_type):
        """A RESERVE's or GET_KEY's reply if it granted, checked against the
        room the store had."""
        room = self.stores[message.pair].unreserved_bits
        reply = self.ask(slot, message)
        if not 0 < message.bits <= self.server.max_reserve_bits:
            assert isinstance(reply, Error) and reply.code == protocol.ERR_LIMIT
        elif message.bits > room:
            assert isinstance(reply, Error) and reply.code == protocol.ERR_EXHAUSTED
        else:
            assert isinstance(reply, ok_type), reply
            return reply
        return None

    @rule(slot=SLOT, pair_index=PAIR, n_words=N_WORDS)
    @recorded
    def reserve(self, slot, pair_index, n_words):
        pair, bits = self.pair(pair_index), WORD_BITS * n_words
        reply = self.request(slot, Reserve(pair=pair, bits=bits), ReserveOk)
        if reply is not None:
            assert reply.bits == bits and (pair, reply.reservation_id) not in self.held
            self.held[pair, reply.reservation_id] = (slot, bits, self.clock + LEASE_SECONDS)

    @rule(slot=SLOT, pair_index=PAIR, n_words=N_WORDS)
    @recorded
    def get_key(self, slot, pair_index, n_words):
        pair, bits = self.pair(pair_index), WORD_BITS * n_words
        reply = self.request(slot, GetKey(pair=pair, bits=bits), ConsumeOk)
        if reply is not None:
            assert reply.key_bits == bits == 8 * len(reply.key_bytes)
            self.note_served(pair, reply.key_bytes)
            entry = (CLIENT_IDS[slot], reply.key_bytes, self.clock)
            self.served[pair, reply.reservation_id] = entry

    @rule(slot=ANY_SLOT, pick=PICK, pair_index=PAIR)
    @recorded
    def consume(self, slot, pick, pair_index):
        key = self.candidates(slot, pick, pair_index)
        held, served = self.held.get(key), self.served.get(key)
        reply = self.ask(slot, Consume(pair=key[0], reservation_id=key[1]))
        if held is not None and CLIENT_IDS[held[0]] == CLIENT_IDS[slot]:
            assert isinstance(reply, ConsumeOk)
            assert reply.key_bits == held[1] == 8 * len(reply.key_bytes)
            del self.held[key]
            self.note_served(key[0], reply.key_bytes)
            self.served[key] = (CLIENT_IDS[slot], reply.key_bytes, self.clock)
        elif served is not None and served[0] == CLIENT_IDS[slot]:
            assert isinstance(reply, ConsumeOk) and reply.key_bytes == served[1]
        else:
            # Another client's reservation, a reaped one, or none at all.
            assert isinstance(reply, Error), "a key reached a client not granted it"
            assert reply.code == protocol.ERR_UNKNOWN_RESERVATION

    @rule(slot=ANY_SLOT, pick=PICK, pair_index=PAIR)
    @recorded
    def release(self, slot, pick, pair_index):
        key = self.candidates(slot, pick, pair_index)
        held = self.held.get(key)
        reply = self.ask(slot, Release(pair=key[0], reservation_id=key[1]))
        if held is not None and CLIENT_IDS[held[0]] == CLIENT_IDS[slot]:
            assert isinstance(reply, ReleaseOk)
            del self.held[key]
            self.released_bits += held[1]
        else:
            assert isinstance(reply, Error) and reply.code == protocol.ERR_UNKNOWN_RESERVATION

    @rule(seconds=st.sampled_from(LAPSES))
    @recorded
    def lease_lapse(self, seconds):
        """Time passes: leases lapse and aged key expires."""
        self.skew += seconds
        self.server.reap_expired()
        self.lapse()
        for store in self.stores.values():
            store.expire(self.clock)

    @rule(slot=SLOT)
    @recorded
    def disconnect(self, slot):
        self.drop(slot)

    @rule(pair_index=PAIR, n_words=st.integers(1, 12))
    @recorded
    def deposit(self, pair_index, n_words):
        first, self.next_word = self.next_word, self.next_word + n_words
        material = b"".join(WORD.pack(COUNTER + n) for n in range(first, first + n_words))
        feed = self.service._feeds[self.pair(pair_index)]
        self.service._bank(feed, BitString.from_bytes(material), self.clock)

    @rule()
    @recorded
    def expire(self):
        for store in self.stores.values():
            store.expire(self.clock)

    @rule(pair_index=PAIR, n_words=st.integers(1, 12))
    @recorded
    def store_reserve(self, pair_index, n_words):
        pair, bits = self.pair(pair_index), WORD_BITS * n_words
        room = self.stores[pair].available_bits - self.reserved(pair)
        try:
            reservation = self.stores[pair].reserve(bits, now=self.clock)
        except KeyStoreExhaustedError:
            assert bits > room
        else:
            assert bits <= room and reservation.bits == bits
            self.live.add(len(self.direct))
            self.direct.append(reservation)

    def colliding(self, reservation):
        """The other pairs whose store holds a reservation with its id."""
        rid = reservation.reservation_id
        holding = {p for p, i in self.held if i == rid}
        holding |= {self.direct[i].pair for i in self.live if self.direct[i].reservation_id == rid}
        return sorted(holding - {reservation.pair})

    @rule(pick=PICK, elsewhere=st.booleans(), draw=st.booleans())
    @recorded
    def store_end(self, pick, elsewhere, draw):
        """Draw or release a direct reservation — with ``elsewhere``, one whose
        id another store holds first — at its own store or another: only the
        store that granted it may accept it, and only once."""
        if not self.direct:
            return
        order = range(len(self.direct))
        if elsewhere:
            order = sorted(order, key=lambda i: not self.colliding(self.direct[i]))
        index = order[pick % len(order)]
        reservation = self.direct[index]
        others = [pair for pair in self.pairs if pair != reservation.pair]
        pair = reservation.pair
        if elsewhere and others:
            pair = (self.colliding(reservation) or others)[0]
        live = pair == reservation.pair and index in self.live
        store = self.stores[pair]
        try:
            key = store.draw(reservation, self.clock) if draw else store.release(reservation)
        except ReservationError:
            assert not live, "a store refused its own live reservation"
        else:
            assert live, "a store accepted a reservation it does not hold"
            self.live.discard(index)
            if draw:
                assert len(key) == reservation.bits
                self.note_served(pair, key.to_bytes(), client=False)
            else:
                self.released_bits += reservation.bits

    def plan(self, clients, bits, keys, first):
        """Up to three pairs that hold key, from the ``first``-th on, and
        ``(pair, keys)`` per client: at most ``keys`` keys per pair, leaving
        one key of room per client for a grant a fault orphans."""
        n = len(self.pairs)
        pairs = [self.pairs[(first + i) % n] for i in range(n)]
        pairs = [p for p in pairs if self.stores[p].unreserved_bits >= bits * (clients + 1)]
        pairs = pairs[: min(3, clients)]
        plan = [[pairs[i % len(pairs)], 0] for i in range(clients)] if pairs else []
        for pair in pairs:
            sharing = [entry for entry in plan if entry[0] == pair]
            for i in range(min(self.stores[pair].unreserved_bits // bits - clients, keys)):
                sharing[i % len(sharing)][1] += 1
        return [tuple(entry) for entry in plan]

    @rule(clients=st.integers(1, 5), key_words=st.sampled_from((2, 4, 8)),
          keys=st.integers(1, 8), first=st.integers(0, 5))
    @recorded
    def burst(self, clients, key_words, keys, first):
        bits = WORD_BITS * key_words
        plan = self.plan(clients, bits, keys, first)
        plane = self.plane if self.faulted else None
        in_process = sum(connection is not None for connection in self.connections)
        metrics = self.server.metrics

        async def fleet():
            started = self.loop.time()
            drawn = await draw_fleet(self.server.port, plan, bits, self.scenario.seed, plane)
            # Let stalled requests end and dropped connections close.
            while metrics.connections_opened - metrics.connections_closed > in_process:
                await asyncio.sleep(0.05)
            return drawn, self.loop.time() - started

        (drawn, clients_used), seconds = self.loop.run_until_complete(fleet())
        if self.faulted:
            self.burst_seconds.append(seconds)
        else:
            self.skew += max(self.pads.pop(0) - seconds, 0.0)
        self.server.reap_expired()
        self.lapse()
        for (pair, wanted), got in zip(plan, drawn):
            assert len(got) == wanted, "a fleet request was lost or answered twice"
            for key in got:
                self.note_served(pair, key)
        self.recoveries += [client.stats for client in clients_used]

    @invariant()
    def every_owner_keeps_its_rule(self):
        fault = self.service.conservation_fault()
        assert fault is None, fault

    @invariant()
    def each_store_reserves_what_is_held(self):
        for pair, store in self.stores.items():
            assert store.reserved_bits == self.reserved(pair), pair
        assert sorted(self.server._held) == sorted(self.held)

    @invariant()
    def every_bit_and_key_is_accounted(self):
        released = sum(store.statistics.bits_released for store in self.stores.values())
        assert released == self.server.metrics.reaped_bits + self.released_bits
        assert self.server.metrics.keys_served == self.keys_served

    def check(self):
        self.every_owner_keeps_its_rule()
        self.each_store_reserves_what_is_held()
        self.every_bit_and_key_is_accounted()


TestStackMachine = pytest.mark.timeout(60)(StackMachine.TestCase)
#: No explain phase: it reruns a failing example under a line tracer, which
#: serves a service a hundred times slower.
TestStackMachine.settings = settings(
    max_examples=30, stateful_step_count=80, deadline=None, report_multiple_bugs=False,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)


# ---- fixed step lists through the same machine ---------------------------- #

def play(scenario, *steps, machine=None):
    """Serve ``scenario`` on ``machine`` (a fresh one by default) and run
    ``steps`` (rule name, args), checking every invariant after each."""
    machine = machine or StackMachine()
    try:
        machine.serve(scenario)
        machine.check()
        for name, *args in steps:
            getattr(machine, name)(*args)
            machine.check()
    finally:
        machine.teardown()
    return machine


def draw(seed):
    """Swarm seed ``seed``'s scenario and steps: a direct reservation at two
    stores (equal ids with idle demand), one offered to the other store; up
    to two lapsing (slot 1) and two disconnected (slot 2) reservations; a
    burst; up to 20 probe consumes; the lapse, and the lapsers' consumes."""
    pick = random.Random(seed)
    drawn = pick_scenario(pick.choice, seed, HOURS)
    clients, key_words = pick.randint(2, 5), pick.choice((2, 4, 8))
    lapses, disconnects, probes = pick.randint(0, 2), pick.randint(0, 2), pick.randint(0, 4)
    steps = [("store_reserve", 0, 1), ("store_reserve", 1, 1), ("store_end", 0, True, seed % 2)]
    steps += [("reserve", 1, i, key_words) for i in range(lapses)]
    steps += [("reserve", 2, i, key_words) for i in range(disconnects)]
    steps += [("disconnect", 2), ("burst", clients, key_words, MAX_KEYS, seed)]
    steps += [("consume", 3, pick.randrange(1 << 16), i) for i in range(5 * probes)]
    steps += [("lease_lapse", LEASE_SECONDS + 1.0)]
    steps += [("consume", 1, pick.randrange(1 << 16), i) for i in range(lapses)]
    return drawn, steps


@pytest.mark.timeout(30)
@pytest.mark.parametrize("seed", SWARM_SEEDS)
def test_swarm(seed):
    scenario, steps = draw(seed)
    try:
        play(scenario, *steps)
    except BaseException as exc:
        raise AssertionError(f"swarm seed {seed} failed on\n  {scenario!r}\n  {steps!r}") from exc


#: A 3-endpoint mesh whose links are all cut before the first epoch: its
#: three stores stay empty and count reservation ids from 1, so ids collide.
EMPTY = Scenario(
    seed=0, topology=("mesh", 3, 2), demand="idle", custody=None, tight_stores=False,
    key_age_seconds=2 * EPOCH_SECONDS, fault_level="none",
    link_events=tuple((0.0, "cut", a, b) for a, b in links(("mesh", 3, 2))),
)


def test_a_held_reservation_answers_only_its_client():
    machine = play(
        EMPTY, ("deposit", 0, 8), ("reserve", 0, 0, 2),
        ("consume", 1, 0, 0), ("release", 1, 0, 0),  # another client: unknown id
        ("consume", 2, 0, 0),  # the same client on its other connection
        ("consume", 1, 0, 0),  # a served key is not replayed to another client
        ("consume", 0, 0, 0),  # but is to its own
        ("consume", 3, 0, 0),  # nor to the probe
    )
    assert len(machine.served) == 1 and machine.server.metrics.consume_replays == 1


def test_colliding_ids_on_two_stores_stay_apart():
    machine = play(
        EMPTY, ("deposit", 0, 4), ("deposit", 1, 4),
        ("reserve", 0, 0, 1), ("reserve", 1, 1, 1),  # the same id, on the other store
        ("consume", 0, 0, 1),  # names (pair 1, 1) from sae-a: not its own
        ("consume", 1, 0, 0), ("consume", 0, 0, 0),  # each its own
        ("store_reserve", 0, 1), ("store_reserve", 1, 1),  # the same id again
        ("store_end", 0, True, True),  # pair 0's reservation drawn at pair 1's store
        ("store_end", 1, True, False),  # and pair 1's released at pair 0's
        ("store_end", 0, False, True), ("store_end", 1, False, False),
    )
    first, second, third = machine.pairs
    assert sorted(machine.served) == [(first, 1), (second, 1)]
    assert machine.words == {first: {COUNTER, COUNTER + 1}, second: {COUNTER + 4}, third: set()}


def test_get_key_after_a_lapsed_lease_and_a_disconnect():
    machine = play(
        EMPTY, ("deposit", 1, 3), ("reserve", 0, 1, 3),
        ("get_key", 1, 1, 1),  # every bit is reserved
        ("lease_lapse", LEASE_SECONDS), ("get_key", 1, 1, 2),
        ("reserve", 2, 1, 1), ("disconnect", 2),
        ("consume", 2, 0, 1),  # on a new connection
        ("get_key", 0, 1, 1),
    )
    assert machine.server.metrics.reaped_by_reason == {"lease-expired": 1, "disconnect": 1}
    assert machine.words[machine.pairs[1]] == {COUNTER, COUNTER + 1, COUNTER + 2}


def test_get_key_leaves_the_state_reserve_and_consume_leave():
    def store_state(m):
        return [(s.available_bits, s.reserved_bits, vars(s.statistics)) for s in m.stores.values()]

    one_frame = play(EMPTY, ("deposit", 0, 6), ("get_key", 0, 0, 4), ("get_key", 1, 0, 1))
    two_frames = play(
        EMPTY, ("deposit", 0, 6), ("reserve", 0, 0, 4), ("consume", 0, 0, 0),
        ("reserve", 1, 0, 1), ("consume", 1, 0, 0),  # the held one sorts first
    )
    assert store_state(one_frame) == store_state(two_frames)
    assert one_frame.words == two_frames.words
    assert one_frame.words[one_frame.pairs[0]] == {COUNTER + n for n in range(5)}


# ---- the pinned chaos soak ------------------------------------------------- #
MAIN_KEYS = 6
#: Fleet tx op 4, the second key's CONSUME, is cut once flushed (the retry
#: must hit the replay cache); tx op 9, the fourth key's RESERVE (after the
#: new connection's HELLO and two keys' requests), is held past the 1 s
#: timeout.
CHAOS = {
    (SITE_CLIENT_TX, 4): FaultAction(DROP_AFTER),
    (SITE_CLIENT_TX, 9): FaultAction(STALL, delay_seconds=1.2),
}
#: One mesh pair holding 32 768 bits, and the :data:`CHAOS` faults.
CHAOS_SCENARIO = Scenario(
    seed=2026, topology=("mesh", 2, 2), demand="idle", custody=None, tight_stores=False,
    key_age_seconds=None, link_events=(), fault_level="chaos",
)
#: A laggard (slot 1) reserves; a resilient client draws six 256-bit keys;
#: the laggard outlives its lease, is refused, and gets a fresh key.
CHAOS_STEPS = (
    ("reserve", 1, 0, 4), ("burst", 1, 4, MAIN_KEYS, 0),
    ("lease_lapse", LEASE_SECONDS + 1.0), ("consume", 1, 0, 0), ("get_key", 1, 0, 4),
)


class TestChaosSoak:
    """Through a drop mid-CONSUME, a stall past the timeout and a lapsed lease,
    each key is served once; the teardown's replay matches the digest."""

    def test_exactly_once_with_digest_equal_to_fault_free_run(self):
        machine = play(CHAOS_SCENARIO, *CHAOS_STEPS)
        metrics, (stats,) = machine.server.metrics, machine.recoveries
        assert machine.keys_served == len(machine.delivered) == MAIN_KEYS + 1
        # The pinned scenarios actually happened.
        assert metrics.consume_replays >= 1, "no drop-mid-consume was absorbed"
        assert stats.timeouts >= 1, "no stall outlived the client timeout"
        assert stats.reconnects >= 1
        assert metrics.reaped_by_reason.get("lease-expired", 0) >= 1
        assert all(store.reserved_bits == 0 for store in machine.stores.values())

    def test_recoveries_are_counted_and_timed(self):
        (stats,) = play(CHAOS_SCENARIO, *CHAOS_STEPS).recoveries
        assert stats.retries >= 1
        assert stats.recovery_seconds.count, "recoveries must be measured"
        assert stats.recovery_seconds.low >= 0

    def test_the_virtual_loop_replays_the_soak_and_tcp_serves_the_same_key(self):
        """Two virtual runs record equal recoveries, and serve what TCP does."""
        first, second = (play(CHAOS_SCENARIO, *CHAOS_STEPS) for _ in range(2))
        tcp = play(CHAOS_SCENARIO, *CHAOS_STEPS, machine=StackMachine(asyncio.new_event_loop()))
        assert first.recoveries == second.recoveries
        assert first.recoveries[0].recovery_seconds.count
        digests = {m.server.metrics.served_digest() for m in (first, second, tcp)}
        assert len(digests) == 1
        assert tcp.keys_served == MAIN_KEYS + 1
