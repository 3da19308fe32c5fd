"""The five E21 workloads.

Each workload is a class with ``setup()`` (a fresh instance from the seed —
its time is ``setup_s``), ``run(tick)`` (the timed region; returns the
observations below) and ``close()``.  A repetition is a fresh instance with
the same seed and the same fixed work, so everything under ``exact`` must
repeat bit for bit.  ``tick`` is the harness's yardstick, or ``None``: a
workload calls it at the boundaries it has inside the timed region, so that
each stretch of work is rescaled by readings taken right beside it.

Observations returned by ``run()``:

``work``        units of work done (10^6 slots, simulated seconds, requests)
``key_bits``    key bits delivered to the workload's consumer
``attempted``   operations attempted, ``failed`` of them failed
``problems``    failed self-consistency checks (any makes the run incorrect)
``exact``       counts and digests pinned in ``expected.json``
``untimed_s``   the workload's own yardstick time inside ``run()``, not part
                of the work (optional)
``slowdown``    the workload's own yardstick as a multiple of its nominal
                time, and ``steady_s``, the host seconds of the timed region
                at the pace that yardstick applies to (optional; the harness's
                reference kernel rescales the whole region otherwise)
``layer``       per-layer metrics the workload reads off its own report
                objects (optional)
anything else   workload-specific inputs to the metrics
"""

from __future__ import annotations

import asyncio
import hashlib
import struct
import time
from typing import Callable, Dict, List, Optional

from repro import QKDSystem
from repro.kms import AggregateProfile, KmsConfig, WorkloadProfile
from repro.kms.store import KeyStore
from repro.netkms import protocol
from repro.netkms.client import NetworkKmsClient
from repro.netkms.metrics import NetKmsMetrics
from repro.netkms.server import NetworkKmsServer
from repro.util.bits import BitString


def pool_digest(pools) -> str:
    """sha256 over every block of every pool, in order, lengths included."""
    digest = hashlib.sha256()
    for pool in pools:
        for block in pool.blocks:
            digest.update(struct.pack(">I", len(block.bits)))
            digest.update(block.bits.to_bytes())
    return digest.hexdigest()


def chunk_digest(chunks) -> str:
    """The netkms server's order-independent served digest, over what the
    client received."""
    metrics = NetKmsMetrics()
    for chunk in chunks:
        metrics.note_key_served(chunk, 8 * len(chunk))
    return metrics.served_digest()


class Workload:
    """Base: holds the seed and the size knobs of the chosen size."""

    name = ""
    #: What one unit of ``work`` is, for the printed tables.
    work_unit = ""
    SIZES: Dict[str, dict] = {}

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = self.SIZES[size]

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tick: Optional[Callable[[], None]] = None) -> dict:
        raise NotImplementedError

    def rates(self, obs: dict, timed_s: float) -> Dict[str, float]:
        """This workload's own end-to-end metrics for one repetition."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# link_single / fleet_epochs: the slot -> key hot path, both implementations
# ---------------------------------------------------------------------- #


def _distillation_observations(links, slots: int, before: dict) -> dict:
    """Shared by the two link workloads: engine statistics since ``before``,
    pool digests, and the Alice == Bob check per block."""
    stats = _engine_totals(links)
    grown = {key: stats[key] - before.get(key, 0) for key in stats}
    alice = pool_digest(link.engine.alice_pool for link in links)
    bob = pool_digest(link.engine.bob_pool for link in links)
    pooled = sum(link.engine.alice_pool.bits_added for link in links)
    problems = []
    if alice != bob:
        problems.append("Alice and Bob pools differ")
    if pooled != stats["distilled_bits"]:
        problems.append(f"pools hold {pooled} bits, engines report {stats['distilled_bits']}")
    blocks = grown["blocks_distilled"] + grown["blocks_aborted"]
    return {
        "work": slots / 1e6,
        "key_bits": grown["distilled_bits"],
        "attempted": max(blocks, 1),
        "failed": 0,
        "problems": problems,
        "exact": {"slots": slots, **grown, "pool_digest": alice},
    }


def _link_rates(obs: dict, timed_s: float) -> Dict[str, float]:
    return {
        "slots_per_s": obs["exact"]["slots"] / timed_s,
        "secret_bits_per_mslot": obs["key_bits"] / obs["work"],
    }


def _engine_totals(links) -> dict:
    fields = ("sifted_bits", "distilled_bits", "blocks_distilled", "blocks_aborted",
              "disclosed_parities")
    return {
        field: sum(getattr(link.engine.statistics, field) for link in links)
        for field in fields
    }


class LinkSingle(Workload):
    name = "link_single"
    work_unit = "Mslot"
    SIZES = {"full": {"slots": 10_000_000}, "smoke": {"slots": 1_500_000}}

    def setup(self) -> None:
        self.link = QKDSystem(seed=self.seed).link()

    def run(self, tick=None) -> dict:
        self.link.run_slots(self.size["slots"])
        return _distillation_observations([self.link], self.size["slots"], {})

    rates = staticmethod(_link_rates)


class FleetEpochs(Workload):
    name = "fleet_epochs"
    work_unit = "Mslot"
    #: ``epochs`` timed epochs follow one warm-up epoch on a fresh fleet; six
    #: is the fewest that carries every lane past its first 2048-bit block
    #: (~392 sifted bits per 250k-slot epoch), so distillation is in the
    #: timed region.
    SIZES = {
        "full": {"lanes": 16, "epoch_slots": 250_000, "epochs": 6},
        "smoke": {"lanes": 1, "epoch_slots": 250_000, "epochs": 6},
    }

    def setup(self) -> None:
        self.fleet = QKDSystem(seed=self.seed).lanes(self.size["lanes"])
        self.fleet.run_slots(self.size["epoch_slots"], flush=False)

    def run(self, tick=None) -> dict:
        size = self.size
        before = _engine_totals(self.fleet.links)
        for epoch in range(size["epochs"]):
            if tick and epoch:
                tick()
            self.fleet.run_slots(size["epoch_slots"], flush=False)
        slots = size["lanes"] * size["epochs"] * size["epoch_slots"]
        return _distillation_observations(self.fleet.links, slots, before)

    rates = staticmethod(_link_rates)


# ---------------------------------------------------------------------- #
# key_life: trigger slot -> key served over TCP, through production code
# ---------------------------------------------------------------------- #


class KeyLife(Workload):
    name = "key_life"
    work_unit = "Mslot"
    SIZES = {
        "full": {"endpoints": 3, "relays": 3, "epochs": 3, "slots_per_epoch": 2_000_000,
                 "key_bits": 128},
        "smoke": {"endpoints": 2, "relays": 2, "epochs": 1, "slots_per_epoch": 1_400_000,
                  "key_bits": 64},
    }
    EPOCH_SECONDS = 60.0

    def setup(self) -> None:
        size = self.size
        mesh = QKDSystem(seed=self.seed).mesh(
            n_endpoints=size["endpoints"], n_relays=size["relays"], prefill_seconds=0
        )
        config = (
            KmsConfig(transport_key_bits=size["key_bits"], store_high_water_bits=1 << 19)
            .with_lanes(
                slots_per_epoch=size["slots_per_epoch"],
                epoch_seconds=self.EPOCH_SECONDS,
                workers=1,
            )
            # One arrival per 10^12 s: the in-process IKE demand stays silent,
            # every banked bit is left for the network client.
            .with_workload(WorkloadProfile.poisson(1e12))
        )
        self.service = mesh.kms(config)

    def run(self, tick=None) -> dict:
        size = self.size
        service = self.service
        horizon = (size["epochs"] - 0.5) * self.EPOCH_SECONDS
        if tick:
            # Epochs run at 0, 60, 120 ... simulated seconds: tick between them.
            for epoch in range(1, size["epochs"]):
                service.events.schedule_at((epoch - 0.5) * self.EPOCH_SECONDS, tick)
        report = service.serve(hours=horizon / 3600.0)
        served, server_report = asyncio.run(self._drain())
        return self._observe(report, served, server_report)

    async def _drain(self):
        """One client empties every store in whole keys over loopback TCP."""
        key_bits = self.size["key_bits"]
        served: Dict[tuple, List[bytes]] = {}
        server = self.service.serve_network()
        async with server:
            async with NetworkKmsClient("127.0.0.1", server.port) as client:
                for pair in sorted(self.service.stores):
                    status = await client.status(pair)
                    served[pair] = [
                        (await client.get_key(pair, bits=key_bits)).key_bytes
                        for _ in range(status.unreserved_bits // key_bits)
                    ]
            return served, server.metrics.report()

    def rates(self, obs: dict, timed_s: float) -> Dict[str, float]:
        return {
            "slots_per_s": obs["exact"]["slots"] / timed_s,
            "served_bits_per_s": obs["key_bits"] / timed_s,
            "served_bits_per_mslot": obs["key_bits"] / obs["work"],
        }

    def _observe(self, report, served, server_report) -> dict:
        size = self.size
        service = self.service
        relays = service.relays
        slots = size["slots_per_epoch"] * sum(
            len(epoch.dispatched) for epoch in service.replenisher.reports
        )
        keys = [key for pair in sorted(served) for key in served[pair]]
        served_bits = 8 * sum(len(key) for key in keys)

        # Replay the deliveries in the order the relay layer made them, taking
        # each pair's keys from what the client received: equal digests mean
        # the client got exactly the deposited bytes, in order.
        replay = hashlib.sha256()
        cursors = {pair: iter(chunks) for pair, chunks in served.items()}
        pad_spent = 0
        for transport in relays.transports:
            pad_spent += transport.pad_bits_consumed
            if not transport.success:
                continue
            pair = (transport.path[0], transport.path[-1])
            key = next(cursors[pair], b"")
            replay.update(f"{pair[0]}--{pair[1]}|{8 * len(key)}|".encode())
            replay.update(key)
        client_digest = replay.hexdigest()

        pad_resident = sum(
            relays.pairwise_key_available_bits(edge.node_a, edge.node_b)
            for edge in relays.network.links()
        )
        store_resident = sum(store.available_bits for store in service.stores.values())
        problems = []
        if client_digest != report.delivered_digest:
            problems.append("client bytes differ from the delivered key material")
        if report.pad_bits_banked != pad_spent + pad_resident:
            problems.append(
                f"pad banked {report.pad_bits_banked} != spent {pad_spent} "
                f"+ resident {pad_resident}"
            )
        if report.delivered_key_bits != served_bits + store_resident:
            problems.append(
                f"delivered {report.delivered_key_bits} != served {served_bits} "
                f"+ resident {store_resident}"
            )
        if server_report.served_digest != chunk_digest(keys):
            problems.append("server and client disagree on the served material")
        failed = sum(server_report.protocol_errors.values()) + server_report.reservations_denied
        return {
            "work": slots / 1e6,
            "key_bits": served_bits,
            "attempted": len(keys) + len(relays.transports),
            "failed": failed,
            "problems": problems,
            "pad_bits_spent": pad_spent,
            "delivered_key_bits": report.delivered_key_bits,
            "exact": {
                "slots": slots,
                "epochs_run": report.epochs_run,
                "pad_bits_banked": report.pad_bits_banked,
                "delivered_keys": report.delivered_keys,
                "keys_served": len(keys),
                "served_bits": served_bits,
                "delivered_digest": report.delivered_digest,
                "client_digest": client_digest,
            },
        }


# ---------------------------------------------------------------------- #
# kms_soak: the zoned metro service in analytic mode
# ---------------------------------------------------------------------- #


class KmsSoak(Workload):
    name = "kms_soak"
    work_unit = "sim_s"
    SIZES = {
        "full": {"endpoints_per_zone": 5, "hours": 0.25, "tunnels": 4000},
        "smoke": {"endpoints_per_zone": 2, "hours": 0.05, "tunnels": 4000},
    }
    #: Yardstick readings inside the soak, evenly spaced in simulated time.
    TICKS = 4

    def setup(self) -> None:
        size = self.size
        mesh = QKDSystem(seed=self.seed, prefill_seconds=240.0).metro(
            n_zones=4, endpoints_per_zone=size["endpoints_per_zone"], relays_per_zone=3
        )
        n_endpoints = len(mesh.endpoints())
        n_pairs = n_endpoints * (n_endpoints - 1) // 2
        config = (
            KmsConfig(
                store_high_water_bits=4_096,
                store_low_water_bits=2_048,
                transport_key_bits=2_048,
            )
            .with_replenishment(epoch_seconds=300.0, workers=1)
            .with_workload(
                AggregateProfile.poisson(
                    tunnels=max(size["tunnels"] // n_pairs, 1), mean_interval_seconds=3_600.0
                )
            )
        )
        self.service = mesh.kms(config)

    def run(self, tick=None) -> dict:
        service = self.service
        if tick:
            horizon = 3_600.0 * self.size["hours"]
            for index in range(1, self.TICKS + 1):
                service.events.schedule_at(index * horizon / (self.TICKS + 1), tick)
        report = service.serve(hours=self.size["hours"])
        problems = []
        if not report.completion_accounted:
            problems.append("demands left unaccounted")
        return {
            "work": report.simulated_seconds,
            "key_bits": report.rekeys_completed * service.config.rekey_draw_bits,
            "attempted": max(report.demands, 1),
            "failed": report.rekeys_failed,
            "problems": problems,
            "delivered_key_bits": report.delivered_key_bits,
            "layer": {
                "kms.sched_overhead_s": report.scheduler_overhead_seconds,
                "kms.starved_share": report.starvation_events / max(report.demands, 1),
                "kms.timeout_share": report.rekeys_timed_out / max(report.demands, 1),
            },
            "exact": {
                "demands": report.demands,
                "rekeys_completed": report.rekeys_completed,
                "rekeys_timed_out": report.rekeys_timed_out,
                "pending_waiters": report.pending_waiters,
                "starvation_events": report.starvation_events,
                "delivered_keys": report.delivered_keys,
                "delivered_digest": report.delivered_digest,
                "rekey_wait_mean_sim_s": report.rekey_latency_mean_seconds,
            },
        }

    def rates(self, obs: dict, timed_s: float) -> Dict[str, float]:
        exact = obs["exact"]
        return {
            "sim_s_per_s": obs["work"] / timed_s,
            "rekey_ok_share": exact["rekeys_completed"] / max(exact["demands"], 1),
            "rekey_wait_mean_sim_s": exact["rekey_wait_mean_sim_s"],
        }


# ---------------------------------------------------------------------- #
# netkms_serve: smallest key over TCP, against a bare echo of the same frames
# ---------------------------------------------------------------------- #


async def _echo_connection(reader, writer) -> None:
    """Bare loopback yardstick: read a frame of the announced length, answer
    with the announced number of bytes."""
    try:
        while True:
            request_len, reply_len = struct.unpack(">HH", await reader.readexactly(4))
            await reader.readexactly(request_len - 4)
            writer.write(bytes(reply_len))
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


class NetkmsServe(Workload):
    name = "netkms_serve"
    work_unit = "request"
    #: The full warm-up exceeds the server's 1024-entry replay cache, so the
    #: timed region sees the cache's steady state, not its growth.
    SIZES = {
        "full": {"requests": 3_000, "chunk": 250, "warmup": 1_100},
        "smoke": {"requests": 200, "chunk": 50, "warmup": 40},
    }
    PAIRS = 4
    CONNECTIONS = 2
    #: What one echoed get_key (two bare round trips) takes in the sandbox's
    #: fast phase; it only scales the echo into a slowdown factor.
    ECHO_NOMINAL_S = 45e-6
    KEY_BITS = 256
    BLOCK_BITS = 2_048
    HIGH_WATER_BITS = 32_768

    def setup(self) -> None:
        size = self.size
        self.pairs = [(f"sae-{i}a", f"sae-{i}b") for i in range(self.PAIRS)]
        self.stores = {
            pair: KeyStore(pair, low_water_bits=0, high_water_bits=self.HIGH_WATER_BITS)
            for pair in self.pairs
        }
        #: Next unused 64-bit counter word per pair; every served word is
        #: unique, so an overlap or a corruption is visible in the served set.
        self.next_word = dict.fromkeys(self.pairs, 0)
        self.served_keys = dict.fromkeys(self.pairs, 0)
        for pair in self.pairs:
            for _ in range(self.HIGH_WATER_BITS // self.BLOCK_BITS):
                self._deposit_block(pair)
        # The seed decides which pair each connection starts its round-robin
        # on — the only input this workload has.
        self.offset = self.seed % self.PAIRS
        self.served: List[tuple] = []
        self.latencies: List[float] = []
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())
        self.loop.run_until_complete(self._get_keys(size["warmup"]))
        self.served.clear()
        self.latencies.clear()

    def _deposit_block(self, pair) -> None:
        index = self.pairs.index(pair)
        first = self.next_word[pair]
        words = self.BLOCK_BITS // 64
        self.next_word[pair] = first + words
        material = b"".join(
            struct.pack(">Q", (index << 48) | word) for word in range(first, first + words)
        )
        self.stores[pair].deposit(BitString.from_bytes(material))

    async def _start(self) -> None:
        self.server = NetworkKmsServer(self.stores, port=0)
        await self.server.start()
        self.echo_server = await asyncio.start_server(_echo_connection, "127.0.0.1", 0)
        echo_port = self.echo_server.sockets[0].getsockname()[1]
        self.clients = []
        self.echo_streams = []
        for index in range(self.CONNECTIONS):
            client = NetworkKmsClient("127.0.0.1", self.server.port, client_id=f"ike-{index}")
            await client.connect()
            self.clients.append(client)
            self.echo_streams.append(await asyncio.open_connection("127.0.0.1", echo_port))
        bits, pair, version = self.KEY_BITS, self.pairs[0], self.clients[0].version
        round_trips = [
            (protocol.Reserve(pair=pair, bits=bits),
             protocol.ReserveOk(reservation_id=1_000, bits=bits, lease_ms=30_000)),
            (protocol.Consume(pair=pair, reservation_id=1_000),
             protocol.ConsumeOk(reservation_id=1_000, key_bits=bits, key_bytes=bytes(bits // 8))),
        ]
        #: (request bytes, reply bytes) of the two round trips of one get_key.
        self.echo_frames = [
            tuple(len(protocol.encode_frame(message, version)) for message in trip)
            for trip in round_trips
        ]

    async def _get_keys(self, count: int) -> None:
        """``count`` get_key calls, split over the connections, closed loop:
        a connection sends its next request when the previous key arrived."""

        async def one_connection(index: int, share: int) -> None:
            client = self.clients[index]
            for request in range(share):
                pair = self.pairs[(self.offset + index + request) % self.PAIRS]
                started = time.perf_counter()
                key = await client.get_key(pair, bits=self.KEY_BITS)
                self.latencies.append(time.perf_counter() - started)
                self.served.append((pair, key.key_bytes))
                self.served_keys[pair] += 1
                # Writes beside reads: every eighth key drawn from a store
                # is replaced by one fresh block, holding the level.
                if self.served_keys[pair] % (self.BLOCK_BITS // self.KEY_BITS) == 0:
                    self._deposit_block(pair)

        await asyncio.gather(
            *(one_connection(i, share) for i, share in enumerate(self._shares(count)))
        )

    async def _echo(self, count: int) -> None:
        async def one_connection(index: int, share: int) -> None:
            reader, writer = self.echo_streams[index]
            for _ in range(share):
                for request_len, reply_len in self.echo_frames:
                    writer.write(struct.pack(">HH", request_len, reply_len))
                    writer.write(bytes(request_len - 4))
                    await writer.drain()
                    await reader.readexactly(reply_len)

        await asyncio.gather(
            *(one_connection(i, share) for i, share in enumerate(self._shares(count)))
        )

    def _shares(self, count: int) -> List[int]:
        base, extra = divmod(count, self.CONNECTIONS)
        return [base + (index < extra) for index in range(self.CONNECTIONS)]

    def run(self, tick=None) -> dict:
        """Its own yardstick, the interleaved echo, stands in for ``tick``."""
        size = self.size
        get_key_s: List[float] = []
        echo_s: List[float] = []
        for _ in range(size["requests"] // size["chunk"]):
            for coroutine, seconds in ((self._get_keys, get_key_s), (self._echo, echo_s)):
                started = time.perf_counter()
                self.loop.run_until_complete(coroutine(size["chunk"]))
                seconds.append(time.perf_counter() - started)
        return self._observe(get_key_s, echo_s)

    def rates(self, obs: dict, timed_s: float) -> Dict[str, float]:
        return {
            "served_bits_per_s": obs["key_bits"] / timed_s,
            "get_key_x_echo": timed_s / obs["untimed_s"],
        }

    def _observe(self, get_key_s: List[float], echo_s: List[float]) -> dict:
        requests = len(self.served)
        report = self.server.metrics.report()
        problems = []
        # FIFO stores over a counter stream: the words served from a pair,
        # warm-up included, are exactly 0..n-1 — none twice, none skipped.
        warm_words = {pair: 0 for pair in self.pairs}
        for pair in self.pairs:
            timed = sum(1 for served_pair, _ in self.served if served_pair == pair)
            warm_words[pair] = (self.served_keys[pair] - timed) * self.KEY_BITS // 64
        words_by_pair: Dict[tuple, List[int]] = {pair: [] for pair in self.pairs}
        for pair, key in self.served:
            words_by_pair[pair].extend(struct.unpack(f">{len(key) // 8}Q", key))
        for index, pair in enumerate(self.pairs):
            first = (index << 48) | warm_words[pair]
            words = sorted(words_by_pair[pair])
            if words != list(range(first, first + len(words))):
                problems.append(f"{pair[0]}: served words are not the deposited stream")
        served_bits = 8 * sum(len(key) for _, key in self.served)
        if served_bits != requests * self.KEY_BITS:
            problems.append("a served key has the wrong length")
        errors = sum(report.protocol_errors.values())
        return {
            "work": requests,
            "key_bits": served_bits,
            "attempted": max(requests, 1),
            "failed": errors + report.reservations_denied,
            "problems": problems,
            "untimed_s": sum(echo_s),
            # This workload's yardstick is its own interleaved echo: the same
            # sockets and event loop, where the reference kernel has none.
            # Closed loop, fixed work per chunk: the fastest get_key chunk
            # against the fastest echo chunk is what the code costs when the
            # sandbox leaves it alone; the sums feed the host-second rates.
            "slowdown": min(echo_s) / (self.size["chunk"] * self.ECHO_NOMINAL_S),
            "steady_s": len(get_key_s) * min(get_key_s),
            "latencies": list(self.latencies),
            "layer": {
                "netkms.server_reserve_p50_us": 1e6 * report.reserve_latency_p50_seconds,
                # Two round trips per echoed get_key.
                "netkms.echo_rtt_us": 1e6 * sum(echo_s) / (2 * requests),
                "netkms.protocol_errors": errors,
                "netkms.denied_share": report.reservations_denied
                / max(report.reservations_denied + report.reservations_granted, 1),
                "netkms.reaped_bits": report.reaped_bits,
            },
            "exact": {
                "keys_served": requests,
                "served_bits": served_bits,
                "served_digest": chunk_digest(key for _, key in self.served),
            },
        }

    def close(self) -> None:
        async def stop() -> None:
            for client in self.clients:
                await client.close()
            for _reader, writer in self.echo_streams:
                writer.close()
                await writer.wait_closed()
            self.echo_server.close()
            await self.echo_server.wait_closed()
            await self.server.stop()

        try:
            self.loop.run_until_complete(stop())
        finally:
            self.loop.close()


WORKLOADS = {cls.name: cls for cls in (LinkSingle, FleetEpochs, KeyLife, KmsSoak, NetkmsServe)}

#: One line each on why the workload exists (``BENCHMARK.json`` repeats them).
WHY = {
    "link_single": "one paper link on the sequential QKDLink path: optics, Cascade and "
    "Wegman-Carter dominate, kms/netkms/ipsec idle",
    "fleet_epochs": "the same optics/core work through the lane engine in 250k-slot epochs, "
    "so a change that helps one path and costs the other shows",
    "key_life": "the whole life of a key bit: Monte-Carlo epochs, relay transport, KeyStore, "
    "then a netkms client drains every store over TCP",
    "kms_soak": "the zoned metro service in analytic mode: scheduler, routing, IKE phase 2 "
    "and the event loop do everything, link layers nothing",
    "netkms_serve": "256-bit get_key on 2 closed-loop connections beside a bare echo of the "
    "same frames, so per-message cost dominates",
}
