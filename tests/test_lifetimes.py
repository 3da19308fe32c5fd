"""Object lifetimes: a finished key service is freed by reference counting.

Continuous operation puts keying material in place and consumes it; once a
:class:`~repro.kms.service.KeyManagementService` is dropped, its stores,
pools, SA keys and pads must go with it at once — not whenever a gen-2
collection happens to run.  That holds only while the object graph from the
service down (stores, gateways, IKE daemons, replenisher, relay network,
custody layer) has no reference cycle, so every test here runs with the
cyclic collector off and asserts that weak references die on ``del``
alone.  A cycle reintroduced anywhere on that graph fails this module.

The collector pass at the end of each case saves whatever only it would
have freed and fails on any object of the package: the mesh's graph is
plain dicts, so no cycle is left anywhere below the service.
"""

import gc
import weakref

import pytest

from repro import QKDSystem
from repro.core.keypool import KeyPool, KeyPoolExhaustedError
from repro.ipsec.gateway import GatewayPair
from repro.ipsec.packets import IPPacket
from repro.ipsec.spd import SecurityPolicy
from repro.kms import KmsConfig
from repro.kms.scheduler import ReplenishmentConfig, ReplenishmentScheduler
from repro.kms.service import KeyManagementService
from repro.kms.store import KeyStore
from repro.kms.workload import AggregateProfile
from repro.network.relay import TrustedRelayNetwork
from repro.network.topology import QKDNetwork
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

#: Packages none of whose objects may be left for the cyclic collector.
KEY_PACKAGES = ("repro",)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def cyclic_garbage():
    """Names of the package's types only the cyclic collector would free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = set()
        for obj in gc.garbage:
            module = type(obj).__module__ or ""
            if any(module == p or module.startswith(p + ".") for p in KEY_PACKAGES):
                found.add(f"{module}.{type(obj).__qualname__}")
        return sorted(found)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def alive(refs):
    return sorted(name for name, ref in refs.items() if ref() is not None)


# --------------------------------------------------------------------- #
# Whole services
# --------------------------------------------------------------------- #


def flat_service():
    mesh = QKDSystem(seed=5).mesh(n_endpoints=3, n_relays=3, prefill_seconds=30.0)
    return mesh.kms(KmsConfig().with_replenishment(epoch_seconds=120.0, workers=1)), 0.1


def metro_service():
    """The zoned shape E21's kms_soak runs, at its smoke size."""
    mesh = QKDSystem(seed=2003, prefill_seconds=240.0).metro(
        n_zones=4, endpoints_per_zone=2, relays_per_zone=3
    )
    n_endpoints = len(mesh.endpoints())
    n_pairs = n_endpoints * (n_endpoints - 1) // 2
    config = (
        KmsConfig(
            store_high_water_bits=4_096, store_low_water_bits=2_048, transport_key_bits=2_048
        )
        .with_replenishment(epoch_seconds=300.0, workers=1)
        .with_workload(
            AggregateProfile.poisson(tunnels=4000 // n_pairs, mean_interval_seconds=3_600.0)
        )
    )
    return mesh.kms(config), 0.05


def custody_service():
    """A 2x2 mesh whose one pair loses its access link: key parks in custody."""
    relays = TrustedRelayNetwork.for_mesh(
        n_endpoints=2, n_relays=2, rng=DeterministicRNG(11), prefill_seconds=30.0
    )
    config = KmsConfig(
        gateway_pairs=(("endpoint-0", "endpoint-1"),),
        custody=True,
        replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1),
    )
    service = KeyManagementService(relays, config, rng=DeterministicRNG(7))
    service.schedule_link_cut(100.0, "endpoint-1", "relay-1")
    return service, 0.5


def lanes_service():
    """Monte-Carlo epochs through the lane loop, in this process."""
    relays = TrustedRelayNetwork.for_mesh(
        n_endpoints=2,
        n_relays=2,
        link_length_km=1.0,
        rng=DeterministicRNG(3),
        prefill_seconds=2.0,
    )
    config = KmsConfig(
        transport_key_bits=64, store_low_water_bits=64, store_high_water_bits=2048
    ).with_lanes(slots_per_epoch=800_000, epoch_seconds=120.0)
    return KeyManagementService(relays, config, rng=DeterministicRNG(3)), 0.1


def watch(service):
    """Weak references to everything a finished service must take with it."""
    refs = {
        "service": weakref.ref(service),
        "replenisher": weakref.ref(service.replenisher),
        "relays": weakref.ref(service.relays),
        "network": weakref.ref(service.relays.network),
    }
    if service.custody is not None:
        refs["custody"] = weakref.ref(service.custody)
    for pair, store in {**service.stores, **service.trunk_stores}.items():
        refs[f"store {pair}"] = weakref.ref(store)
        refs[f"pool {pair}"] = weakref.ref(store.local_pool)
    for pair, gateways in service.gateways.items():
        for side in ("alice", "bob"):
            gateway = getattr(gateways, side)
            refs[f"{side} {pair}"] = weakref.ref(gateway)
            refs[f"{side} ike {pair}"] = weakref.ref(gateway.ike)
    installed = [sa for g in service.gateways.values() for sa in g.alice.sad.by_spi.values()]
    refs["installed SA"] = weakref.ref(installed[0])
    return refs


@pytest.mark.parametrize(
    "build", [flat_service, metro_service, custody_service, lanes_service]
)
def test_a_finished_service_is_freed_without_the_collector(collector_off, build):
    service, hours = build()
    report = service.serve(hours=hours)
    assert report.rekeys_completed > 0 and report.completion_accounted
    refs = watch(service)
    del service
    assert alive(refs) == []
    assert cyclic_garbage() == []


def test_a_dropped_service_unsubscribes_from_its_mesh(monkeypatch):
    """Two services over one mesh: once the first is dropped, its scheduler
    is gone and a pad change reaches the second one's listener alone."""
    calls = []
    original = ReplenishmentScheduler._on_pad_change

    def counting(self, key):
        calls.append(key)
        original(self, key)

    monkeypatch.setattr(ReplenishmentScheduler, "_on_pad_change", counting)
    mesh = QKDSystem(seed=5).mesh(n_endpoints=3, n_relays=3, prefill_seconds=0.0)
    config = KmsConfig().with_replenishment(workers=1)
    first = mesh.kms(config)
    second = mesh.kms(config)
    replenisher = weakref.ref(first.replenisher)
    del first
    assert replenisher() is None
    mesh.relays.bank_pad("relay-0", "relay-1", b"\x00")
    assert calls == [("relay-0", "relay-1")]
    assert second.replenisher is not None


# --------------------------------------------------------------------- #
# One object at a time
# --------------------------------------------------------------------- #


def test_a_gateway_pair_is_freed_without_the_collector(collector_off):
    shared = BitString.random(20_000, DeterministicRNG(80))
    alice_pool, bob_pool = KeyPool(name="alice"), KeyPool(name="bob")
    alice_pool.add_bits(shared)
    bob_pool.add_bits(shared)
    pair = GatewayPair(alice_pool, bob_pool, rng=DeterministicRNG(81))
    pair.add_symmetric_policy(SecurityPolicy("enclave", "10.1.0.0/16", "10.2.0.0/16"))
    pair.establish()
    assert pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"x")).payload == b"x"
    assert pair.alice.peer is pair.bob and pair.bob.peer is pair.alice
    refs = {
        "pair": weakref.ref(pair),
        "alice": weakref.ref(pair.alice),
        "bob": weakref.ref(pair.bob),
        "alice ike": weakref.ref(pair.alice.ike),
        "bob ike": weakref.ref(pair.bob.ike),
        "SA": weakref.ref(next(iter(pair.alice.sad.by_spi.values()))),
    }
    del pair
    assert alive(refs) == []
    assert cyclic_garbage() == []


def test_a_key_store_is_freed_while_its_pool_lives_on(collector_off):
    store = KeyStore(("a", "b"), capacity_bits=4096, low_water_bits=0, high_water_bits=1024)
    store.deposit(BitString.random(1024, DeterministicRNG(4)))
    store.reserve(256)
    statistics = store.statistics
    pool = store.local_pool
    ref = weakref.ref(store)
    del store
    assert ref() is None
    # The pool still honours the reservation its store granted, and still
    # counts its draws in the store's statistics.
    assert len(pool.draw_bits(768)) == 768
    with pytest.raises(KeyPoolExhaustedError):
        pool.draw_bits(1)
    assert pool.available_bits == 256
    assert statistics.bits_consumed == 768
    assert cyclic_garbage() == []


def test_a_network_with_a_cut_link_is_freed_without_the_collector(collector_off):
    network = QKDNetwork.relay_mesh(n_endpoints=3, n_relays=3)
    network.cut_link("relay-0", "relay-1")
    assert network.unusable_link_keys() == [("relay-0", "relay-1")]
    edge = network.link("relay-0", "relay-1")
    ref = weakref.ref(network)
    del network
    assert ref() is None
    edge.operational = True  # an orphaned edge has no network to tell
    assert edge.usable
