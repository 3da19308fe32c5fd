"""Every owner's conservation rule, under a stateful workout of the key server.

:class:`ServerMachine` is a ``hypothesis`` rule-based state machine over one
:class:`~repro.netkms.server.NetworkKmsServer` and two
:class:`~repro.kms.store.KeyStore` s whose reservation ids collide (both count
from 1).  Three connections speak the wire protocol in-process: each is a
server ``_Connection`` over a transport that records what the server writes,
so no socket is involved — with no ``request_hook`` the server answers
inside ``data_received``.  The server is started on a virtual-time loop
(:mod:`tests.virtual_loop`), whose clock is the server's: the machine moves
time by advancing that loop.  Two of the connections share a HELLO
``client_id``; the third is another client.

The steps are what a deployment does to a key server: deposit, reserve,
consume, get_key, release, key expiry, a lease that lapses (the clock moves,
then ``reap_expired``), a disconnect and a reconnect.  After every step:

* every owner's rule holds (each store's and the server's
  ``conservation_fault``), and each store reserves exactly what the server
  holds on it;
* no deposited bit is served twice: deposits are blocks of distinct 64-bit
  counter words and every request is whole words, so a served key is a run
  of words no other key contains;
* no key reaches a ``client_id`` that was not granted its reservation.

The fixed scripts at the end replay the scenarios of
``TestGetKeyStateEquivalence`` and ``TestReservationOwnership`` through the
same machine.
"""

import struct

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kms.store import KeyStore
from repro.netkms import protocol
from repro.netkms.protocol import (
    Consume,
    ConsumeOk,
    Error,
    GetKey,
    Hello,
    Release,
    ReleaseOk,
    Reserve,
    ReserveOk,
)
from repro.netkms.server import LEASE_SECONDS, NetworkKmsServer, _Connection
from repro.util.bits import BitString
from tests.virtual_loop import VirtualLoop

PAIRS = (("alice", "bob"), ("carol", "dave"))
#: Connection slot -> HELLO client_id: slots 0 and 2 are one client.
CLIENT_IDS = ("sae-a", "sae-b", "sae-a")
WORD_BITS = 64
MAX_RESERVE_BITS = 8 * WORD_BITS
KEY_AGE_SECONDS = 6 * LEASE_SECONDS
#: The clock steps, as fractions of the lease: short of it, to it, past it.
LAPSES = tuple(LEASE_SECONDS * f for f in (0.1, 0.4, 0.9, 1.0, 1.8))


class RecordingTransport:
    """The transport a ``_Connection`` writes to: frames in a splitter."""

    def __init__(self):
        self.written = protocol.FrameSplitter()
        self.closed = False

    def write(self, data):
        self.written.feed(bytes(data))

    def close(self):
        self.closed = True

    abort = close

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def words(key_bytes):
    return [word for (word,) in struct.iter_unpack(">Q", key_bytes)]


class ServerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.stores = {
            pair: KeyStore(pair, max_key_age_seconds=KEY_AGE_SECONDS) for pair in PAIRS
        }
        self.server = NetworkKmsServer(
            self.stores,
            max_reserve_bits=MAX_RESERVE_BITS,
        )
        self.loop = VirtualLoop()
        self.loop.run_until_complete(self.server.start())
        self.connections = [None] * len(CLIENT_IDS)
        for slot in range(len(CLIENT_IDS)):
            self.connect(slot)
        self.next_word = 0
        self.request_id = 0
        #: Model: (pair, id) -> (slot, bits, lease deadline) per reservation
        #: a RESERVE granted and nobody has ended yet.
        self.held = {}
        #: (pair, id) -> (client_id, key bytes, when) per key served.
        self.served = {}
        self.served_words = set()

    def teardown(self):
        self.loop.close()

    @property
    def clock(self):
        return self.loop.time()

    # ---- the wire ------------------------------------------------------- #

    def ask(self, slot, message):
        """Send ``message`` on ``slot``'s connection; its one reply (``None``
        while the slot is disconnected)."""
        if self.connections[slot] is None:
            return None
        connection, transport = self.connections[slot]
        self.request_id += 1
        message.request_id = self.request_id
        connection.data_received(protocol.encode_frame(message, connection.version))
        reply = protocol.decode_body(transport.written.next_frame(), connection.version)
        assert transport.written.next_frame() is None
        assert reply.request_id == self.request_id
        return reply

    def lapse_model(self):
        """The server reaps lapsed leases before it grants, consumes or
        releases anything, and forgets served keys past their retention;
        so does the model.  Returns the bits each store gets back."""
        freed = dict.fromkeys(PAIRS, 0)
        for key, (_slot, bits, deadline) in list(self.held.items()):
            if deadline <= self.clock:
                freed[key[0]] += bits
                del self.held[key]
        retention = self.server.replay_retention_seconds
        self.served = {
            key: entry for key, entry in self.served.items() if entry[2] + retention > self.clock
        }
        return freed

    def candidates(self, pick, pair_index):
        """A reservation id to name: one held, one served, or one that only
        exists on the other store (the ids collide)."""
        keys = sorted(self.held) + sorted(self.served)
        if not keys:
            return PAIRS[pair_index], 1 + pick % 3
        pair, reservation_id = keys[pick % len(keys)]
        if pick % 5 == 4:
            pair = PAIRS[1 - PAIRS.index(pair)]
        return pair, reservation_id

    def note_served(self, slot, pair, reply):
        served = words(reply.key_bytes)
        assert reply.key_bits == WORD_BITS * len(served)
        assert self.served_words.isdisjoint(served), "a deposited bit was served twice"
        assert all(word < self.next_word for word in served), "served bits never deposited"
        self.served_words.update(served)
        self.served[pair, reply.reservation_id] = (CLIENT_IDS[slot], reply.key_bytes, self.clock)

    # ---- steps ----------------------------------------------------------- #

    @rule(pair_index=st.integers(0, 1), n_words=st.integers(1, 12))
    def deposit(self, pair_index, n_words):
        first, self.next_word = self.next_word, self.next_word + n_words
        material = b"".join(struct.pack(">Q", word) for word in range(first, first + n_words))
        self.stores[PAIRS[pair_index]].deposit(BitString.from_bytes(material), now=self.clock)

    @rule(slot=st.integers(0, 2), pair_index=st.integers(0, 1), n_words=st.integers(0, 9))
    def reserve(self, slot, pair_index, n_words):
        pair, bits = PAIRS[pair_index], WORD_BITS * n_words
        room = self.stores[pair].unreserved_bits + self.lapse_model()[pair]
        reply = self.ask(slot, Reserve(pair=pair, bits=bits))
        if reply is None:
            return
        if not 0 < bits <= MAX_RESERVE_BITS:
            assert isinstance(reply, Error) and reply.code == protocol.ERR_LIMIT
        elif bits > room:
            assert isinstance(reply, Error) and reply.code == protocol.ERR_EXHAUSTED
        else:
            assert isinstance(reply, ReserveOk) and reply.bits == bits
            key = (pair, reply.reservation_id)
            assert key not in self.held
            self.held[key] = (slot, bits, self.clock + LEASE_SECONDS)

    @rule(slot=st.integers(0, 2), pair_index=st.integers(0, 1), n_words=st.integers(0, 9))
    def get_key(self, slot, pair_index, n_words):
        pair, bits = PAIRS[pair_index], WORD_BITS * n_words
        room = self.stores[pair].unreserved_bits + self.lapse_model()[pair]
        reply = self.ask(slot, GetKey(pair=pair, bits=bits))
        if reply is None:
            return
        if not 0 < bits <= MAX_RESERVE_BITS:
            assert isinstance(reply, Error) and reply.code == protocol.ERR_LIMIT
        elif bits > room:
            assert isinstance(reply, Error) and reply.code == protocol.ERR_EXHAUSTED
        else:
            assert isinstance(reply, ConsumeOk) and reply.key_bits == bits
            self.note_served(slot, pair, reply)

    @rule(slot=st.integers(0, 2), pick=st.integers(0, 1 << 16), pair_index=st.integers(0, 1))
    def consume(self, slot, pick, pair_index):
        self.lapse_model()
        key = self.candidates(pick, pair_index)
        held, served = self.held.get(key), self.served.get(key)
        reply = self.ask(slot, Consume(pair=key[0], reservation_id=key[1]))
        if reply is None:
            return
        if held is not None and CLIENT_IDS[held[0]] == CLIENT_IDS[slot]:
            assert isinstance(reply, ConsumeOk) and reply.key_bits == held[1]
            del self.held[key]
            self.note_served(slot, key[0], reply)
        elif served is not None and served[0] == CLIENT_IDS[slot]:
            assert isinstance(reply, ConsumeOk) and reply.key_bytes == served[1]
        else:
            # Another client's reservation, a reaped one, or none at all.
            assert isinstance(reply, Error), "a key reached a client not granted it"
            assert reply.code == protocol.ERR_UNKNOWN_RESERVATION

    @rule(slot=st.integers(0, 2), pick=st.integers(0, 1 << 16), pair_index=st.integers(0, 1))
    def release(self, slot, pick, pair_index):
        self.lapse_model()
        key = self.candidates(pick, pair_index)
        held = self.held.get(key)
        reply = self.ask(slot, Release(pair=key[0], reservation_id=key[1]))
        if reply is None:
            return
        if held is not None and CLIENT_IDS[held[0]] == CLIENT_IDS[slot]:
            assert isinstance(reply, ReleaseOk)
            del self.held[key]
        else:
            assert isinstance(reply, Error) and reply.code == protocol.ERR_UNKNOWN_RESERVATION

    @rule()
    def expire(self):
        for store in self.stores.values():
            store.expire(self.clock)

    @rule(seconds=st.sampled_from(LAPSES))
    def lease_lapse(self, seconds):
        self.loop.advance(seconds)
        self.server.reap_expired()
        self.lapse_model()

    @rule(slot=st.integers(0, 2))
    def disconnect(self, slot):
        if self.connections[slot] is None:
            return
        connection, _transport = self.connections[slot]
        connection.connection_lost(None)
        self.connections[slot] = None
        self.held = {key: entry for key, entry in self.held.items() if entry[0] != slot}

    @rule(slot=st.integers(0, 2))
    def reconnect(self, slot):
        if self.connections[slot] is None:
            self.connect(slot)

    def connect(self, slot):
        connection, transport = _Connection(self.server), RecordingTransport()
        connection.connection_made(transport)
        connection.data_received(
            protocol.encode_frame(Hello(client_id=CLIENT_IDS[slot]), protocol.FLOOR_VERSION)
        )
        transport.written.next_frame()  # WELCOME
        assert connection.version == protocol.PROTOCOL_V4
        self.connections[slot] = (connection, transport)

    # ---- after every step --------------------------------------------------- #

    @invariant()
    def every_owner_keeps_its_rule(self):
        for owner in (*self.stores.values(), self.server):
            assert owner.conservation_fault() is None, owner.conservation_fault()

    @invariant()
    def each_store_reserves_what_the_server_holds(self):
        for pair, store in self.stores.items():
            held = [h for (p, _), h in self.server._held.items() if p == pair]
            assert store.reserved_bits == sum(h.reservation.bits for h in held)
        assert sorted(self.server._held) == sorted(self.held)

    @invariant()
    def no_connection_was_dropped(self):
        assert not any(transport.closed for _, transport in filter(None, self.connections))


TestServerMachine = ServerMachine.TestCase
TestServerMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


# --------------------------------------------------------------------------- #
# Scripts: the netkms scenarios the machine grew from, as plain regressions
# --------------------------------------------------------------------------- #


def play(*steps):
    """Run ``steps`` (method name, args) on a fresh machine, checking every
    invariant after each, as the state machine does."""
    machine = ServerMachine()
    try:
        for name, *args in steps:
            getattr(machine, name)(*args)
            machine.every_owner_keeps_its_rule()
            machine.each_store_reserves_what_the_server_holds()
            machine.no_connection_was_dropped()
    finally:
        machine.teardown()
    return machine


def test_a_held_reservation_answers_only_its_client():
    machine = play(
        ("deposit", 0, 8),
        ("reserve", 0, 0, 2),
        ("consume", 1, 0, 0),  # another client: unknown id
        ("release", 1, 0, 0),
        ("consume", 2, 0, 0),  # the same client on its other connection
        ("consume", 1, 0, 0),  # a served key is not replayed to another client
        ("consume", 0, 0, 0),  # but is to its own
    )
    assert len(machine.served) == 1 and machine.server.metrics.consume_replays == 1


def test_colliding_ids_on_two_stores_stay_apart():
    machine = play(
        ("deposit", 0, 4),
        ("deposit", 1, 4),
        ("reserve", 0, 0, 1),
        ("reserve", 1, 1, 1),  # the same id, on the other store
        ("consume", 0, 4, 0),  # names (carol, dave) 1 from sae-a: not its own
        ("consume", 1, 1, 0),
        ("consume", 0, 0, 0),
    )
    assert sorted(machine.served) == [(PAIRS[0], 1), (PAIRS[1], 1)]


def test_get_key_after_a_lapsed_lease_and_a_disconnect():
    machine = play(
        ("deposit", 1, 3),
        ("reserve", 0, 1, 3),
        ("get_key", 1, 1, 1),  # every bit is reserved
        ("lease_lapse", LEASE_SECONDS),
        ("get_key", 1, 1, 2),
        ("reserve", 2, 1, 1),
        ("disconnect", 2),
        ("consume", 2, 0, 1),  # no connection: nothing is sent
        ("reconnect", 2),
        ("get_key", 0, 1, 1),
        ("expire",),
    )
    assert machine.server.metrics.reaped_by_reason == {"lease-expired": 1, "disconnect": 1}
    assert len(machine.served_words) == 3


def test_get_key_leaves_the_state_reserve_and_consume_leave():
    def store_state(machine):
        return [
            (store.available_bits, store.reserved_bits, vars(store.statistics))
            for store in machine.stores.values()
        ]

    one_frame = play(("deposit", 0, 6), ("get_key", 0, 0, 4), ("get_key", 1, 0, 1))
    two_frames = play(
        ("deposit", 0, 6),
        ("reserve", 0, 0, 4),
        ("consume", 0, 0, 0),
        ("reserve", 1, 0, 1),
        ("consume", 1, 0, 0),  # the held one sorts first
    )
    assert store_state(one_frame) == store_state(two_frames)
    assert one_frame.served_words == two_frames.served_words == set(range(5))
