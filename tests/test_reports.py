"""Every report reads the same values from the counters it summarises.

Each report below is taken from a fixed, seeded scenario and compared field
by field with values recorded before the reports became views over their
owners' counters (``KmsMetrics``, ``CustodyMetrics``, ``NetKmsMetrics``, the
authentication pool, ``GatewayStatistics``).  Fields measured on the wall
clock (elapsed time, wall-clock rates and latencies, ``scheduler_overhead_*``)
are left out by name; everything else is deterministic.

A report is a snapshot: taking another one, or running more work, does not
change a report already taken.
"""

import asyncio

import pytest

from repro import QKDSystem
from repro.ipsec import CipherSuite
from repro.netkms import server as server_module
from repro.netkms.client import NetworkKmsClient
from tests.test_netkms import PAIR, pinned_script, run_script, started_server
from tests.test_zones import metro_service

# --------------------------------------------------------------------------- #
# SoakReport: the zoned metro soak with custody on
# --------------------------------------------------------------------------- #

SOAK_WALL_CLOCK = ("scheduler_overhead_seconds", "scheduler_overhead_per_epoch_seconds")

SOAK_FIELDS = {
    "simulated_seconds": 1800.0,
    "demands": 223,
    "rekeys_completed": 223,
    "rekeys_timed_out": 0,
    "rekeys_failed": 0,
    "pending_waiters": 0,
    "starvation_events": 0,
    "delivered_keys": 235,
    "delivered_key_bits": 481280,
    "keys_per_second": 0.13055555555555556,
    "key_bits_per_second": 267.3777777777778,
    "rekey_latency_p50_seconds": 0.0,
    "rekey_latency_p99_seconds": 0.0,
    "rekey_latency_mean_seconds": 0.0,
    "reroutes": 0,
    "transports_failed": 0,
    "epochs_run": 16,
    "pad_bits_banked": 554904,
    "eavesdropped_links": (),
    "delivered_digest": "6d90ed93c89dc0436eb05bf05c43855494928aba622792f5926c0d5ddcd3a147",
    "transports_parked": 81,
    "custody_submitted": 81,
    "custody_delivered": 58,
    "custody_expired": 0,
    "custody_evicted": 0,
    "custody_live": 23,
    "custody_occupancy_peak_bits": 49152,
    "custody_delivered_digest": "0abc96eb9cf26d45ddb9d195627406efacde9c068cd13197c859b761d973336c",
    "zones": 3,
    "trunk_keys_delivered": 261,
    "trunk_key_bits": 534528,
    "completion_accounted": True,
    "custody_accounted": True,
}

#: ``per_pair`` rows as (available, deposited, consumed, rekeys); every
#: pair's ``bits_expired``, ``reservations_denied`` and ``starved_epochs``
#: are 0.
SOAK_PER_PAIR = {
    "z00-endpoint-0--z00-endpoint-1": (17408, 32768, 15360, 15),
    "z00-endpoint-0--z01-endpoint-0": (16384, 34816, 18432, 18),
    "z00-endpoint-0--z01-endpoint-1": (16384, 24576, 8192, 8),
    "z00-endpoint-0--z02-endpoint-0": (17408, 26624, 9216, 9),
    "z00-endpoint-0--z02-endpoint-1": (16384, 32768, 16384, 16),
    "z00-endpoint-1--z01-endpoint-0": (16384, 38912, 22528, 22),
    "z00-endpoint-1--z01-endpoint-1": (17408, 32768, 15360, 15),
    "z00-endpoint-1--z02-endpoint-0": (17408, 38912, 21504, 21),
    "z00-endpoint-1--z02-endpoint-1": (17408, 38912, 21504, 21),
    "z01-endpoint-0--z01-endpoint-1": (16384, 28672, 12288, 12),
    "z01-endpoint-0--z02-endpoint-0": (16384, 30720, 14336, 14),
    "z01-endpoint-0--z02-endpoint-1": (16384, 28672, 12288, 12),
    "z01-endpoint-1--z02-endpoint-0": (17408, 30720, 13312, 13),
    "z01-endpoint-1--z02-endpoint-1": (17408, 36864, 19456, 19),
    "z02-endpoint-0--z02-endpoint-1": (16384, 24576, 8192, 8),
}

#: ``per_trunk`` rows as (available, deposited, consumed); no trunk denied
#: a reservation.
SOAK_PER_TRUNK = {
    "z00--z01": (38912, 169984, 131072),
    "z00--z02": (36864, 174080, 137216),
    "z01--z02": (63488, 190464, 126976),
}


def zoned_custody_soak():
    return metro_service(workers=1, gateway_outage=True).serve(hours=0.5)


# --------------------------------------------------------------------------- #
# MetricsReport: the pinned netkms script
# --------------------------------------------------------------------------- #

METRICS_WALL_CLOCK = (
    "elapsed_seconds",
    "requests_per_second",
    "reserve_latency_p50_seconds",
    "reserve_latency_p99_seconds",
    "reserve_latency_mean_seconds",
)

METRICS_FIELDS = {
    "connections_opened": 2,
    "connections_closed": 0,
    "reservations_granted": 40,
    "reservations_denied": 1,
    "keys_served": 40,
    "key_bits_served": 18361,
    "protocol_errors": {"unknown-pair": 1, "exhausted": 1, "limit": 1},
    "fatal_errors": 0,
    "served_digest": "5a65c92adfb689ecc886fc628675e9c86aed3743e2c6c38d2328cef0ebb8dae2",
    "reservations_reaped": 0,
    "reaped_bits": 0,
    "reaped_by_reason": {},
    "consume_replays": 0,
}

#: What alone depends on how many frames a ``get_key`` is.
METRICS_BY_VERSIONS = {
    (1, 2, 3): {"requests": 83, "requests_by_kind": {"Reserve": 43, "Consume": 40}},
    (1, 2, 3, 4): {"requests": 43, "requests_by_kind": {"GetKey": 43}},
}


def pinned_script_report(monkeypatch, versions):
    """The report the pinned script's server gives once the script is done,
    before its clients start to close (a close races the server's read)."""
    servers, taken = [], []
    start = server_module.NetworkKmsServer.start
    close = NetworkKmsClient.close

    async def recording_start(server, *args, **kwargs):
        servers.append(server)
        return await start(server, *args, **kwargs)

    async def report_then_close(client, *args, **kwargs):
        if not taken:
            taken.append(servers[0].metrics.report())
        return await close(client, *args, **kwargs)

    monkeypatch.setattr(server_module.NetworkKmsServer, "start", recording_start)
    monkeypatch.setattr(NetworkKmsClient, "close", report_then_close)
    run_script(pinned_script(), versions)
    return taken[0]


# --------------------------------------------------------------------------- #
# AuthenticationStatistics: both ends of one engine
# --------------------------------------------------------------------------- #

#: Both ends, after 3 M slots: three authenticated blocks, two pads of 32
#: bits each per block at each end.  The pool itself also gave up the
#: 287-bit Toeplitz seed, which is not a batch's cost.
AUTH_FIELDS = {
    "batches_tagged": 3,
    "batches_verified": 3,
    "verification_failures": 0,
    "secret_bits_consumed": 192,
    "secret_bits_replenished": 299,
}


def authenticated_link():
    link = QKDSystem(seed=2003).link()
    link.run_slots(3_000_000)
    return link


# --------------------------------------------------------------------------- #
# GatewayStatistics: a VPN after a fixed packet count
# --------------------------------------------------------------------------- #

GATEWAY_FIELDS = {
    "alice": {
        "packets_sent": 15,
        "packets_received": 3,
        "packets_bypassed": 0,
        "packets_discarded": 3,
        "bytes_protected": 63,
        "negotiations": 6,
        "negotiation_failures": 0,
        "rollovers": 2,
        "decryption_failures": 0,
    },
    "bob": {
        "packets_sent": 3,
        "packets_received": 15,
        "packets_bypassed": 0,
        "packets_discarded": 0,
        "bytes_protected": 15,
        "negotiations": 3,
        "negotiation_failures": 0,
        "rollovers": 0,
        "decryption_failures": 0,
    },
}

#: Both daemons drew the same Qblocks: three AES rekeys of 1 024 bits and
#: three one-time-pad rekeys of 8 192.
GATEWAY_QKD_BITS = 30720


def vpn_after_traffic():
    vpn = QKDSystem(seed=42, distill_seconds=0.0).vpn()
    vpn.top_up(40_000)
    # The narrower one-time-pad policy first: the SPD takes the first match.
    vpn.secure_tunnel(
        "sensitive",
        "10.1.50.0/24",
        "10.2.50.0/24",
        cipher_suite=CipherSuite.ONE_TIME_PAD,
        qkd_bits_per_rekey=8_192,
    )
    vpn.secure_tunnel(
        "enclave", "10.1.0.0/16", "10.2.0.0/16", lifetime_seconds=60.0, qkd_bits_per_rekey=1024
    )
    for minute in range(3):
        for index in range(4):
            vpn.send("10.1.0.10", "10.2.0.20", f"{minute}/{index}".encode())
        vpn.send("10.1.50.1", "10.2.50.1", b"sensitive")
        vpn.send("10.2.0.20", "10.1.0.10", b"reply", from_alice=False)
        vpn.send("10.9.0.1", "10.2.0.20", b"no policy")
        vpn.advance_time(61.0)
    return vpn


# --------------------------------------------------------------------------- #
# The pins
# --------------------------------------------------------------------------- #


class TestSoakReport:
    def test_every_deterministic_field_is_as_recorded(self):
        report = zoned_custody_soak()
        assert {name: getattr(report, name) for name in SOAK_FIELDS} == SOAK_FIELDS
        assert report.per_pair == {
            name: {
                "available_bits": float(available),
                "bits_deposited": float(deposited),
                "bits_consumed": float(consumed),
                "bits_expired": 0.0,
                "reservations_denied": 0.0,
                "starved_epochs": 0.0,
                "rekeys": float(rekeys),
            }
            for name, (available, deposited, consumed, rekeys) in SOAK_PER_PAIR.items()
        }
        assert report.per_trunk == {
            name: {
                "available_bits": float(available),
                "bits_deposited": float(deposited),
                "bits_consumed": float(consumed),
                "reservations_denied": 0.0,
            }
            for name, (available, deposited, consumed) in SOAK_PER_TRUNK.items()
        }
        for name in SOAK_WALL_CLOCK:
            assert getattr(report, name) >= 0.0

    def test_a_later_request_does_not_change_the_report(self):
        service = metro_service(workers=1, gateway_outage=True)
        report = service.serve(hours=0.5)
        pair = sorted(service.stores)[0]

        async def one_key():
            async with service.serve_network() as server:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    await client.get_key(pair, bits=256)

        asyncio.run(one_key())
        assert service.stores[pair].statistics.bits_consumed == 15360 + 256
        assert {name: getattr(report, name) for name in SOAK_FIELDS} == SOAK_FIELDS
        assert report.per_pair[f"{pair[0]}--{pair[1]}"]["bits_consumed"] == 15360.0


class TestMetricsReport:
    @pytest.mark.parametrize("versions", sorted(METRICS_BY_VERSIONS))
    def test_every_deterministic_field_is_as_recorded(self, monkeypatch, versions):
        report = pinned_script_report(monkeypatch, versions)
        expected = {**METRICS_FIELDS, **METRICS_BY_VERSIONS[versions]}
        assert {name: getattr(report, name) for name in expected} == expected
        for name in METRICS_WALL_CLOCK:
            assert getattr(report, name) >= 0.0

    def test_a_later_request_does_not_change_the_report(self):
        async def scenario():
            server = await started_server()
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    await client.get_key(PAIR, bits=256)
                    first = server.metrics.report()
                    await client.get_key(PAIR, bits=512)
                    return first, server.metrics.report()
            finally:
                await server.stop()

        first, second = asyncio.run(scenario())
        assert (first.keys_served, first.key_bits_served, first.requests) == (1, 256, 1)
        assert first.requests_by_kind == {"GetKey": 1}
        assert (second.keys_served, second.key_bits_served, second.requests) == (2, 768, 2)
        assert second.requests_by_kind == {"GetKey": 2}
        assert first.served_digest != second.served_digest


class TestAuthenticationStatistics:
    def test_both_ends_are_as_recorded(self):
        link = authenticated_link()
        for channel in (link.engine.alice_auth, link.engine.bob_auth):
            statistics = channel.statistics
            assert {name: getattr(statistics, name) for name in AUTH_FIELDS} == AUTH_FIELDS


class TestGatewayStatistics:
    def test_both_gateways_are_as_recorded(self):
        pair = vpn_after_traffic().gateways
        for name, expected in GATEWAY_FIELDS.items():
            gateway = getattr(pair, name)
            assert {field: getattr(gateway.statistics, field) for field in expected} == expected
            assert gateway.ike.qkd_bits_consumed == GATEWAY_QKD_BITS
            assert (
                gateway.esp.authentication_failures,
                gateway.esp.replay_rejections,
                gateway.esp.pad_failures,
            ) == (0, 0, 0)
