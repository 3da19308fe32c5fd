#!/usr/bin/env python3
"""Networked key delivery: SAE clients drawing key from a KMS over TCP.

``continuous_operation.py`` shows the *production* side — the replenishment
loop distilling key into per-pair stores.  This example shows the
*consumption* side: the same mesh service puts its stores behind the
``repro.netkms`` asyncio front end, and a fleet of concurrent SAE clients
(think IKE daemons) draws keys over the versioned binary protocol, v4.  A
legacy gateway that offers only v1 is turned away at the HELLO with a typed
``version-mismatch`` it can still decode, a resilient client (reconnect,
retry and exactly-once ``get_key``) draws beside the fleet, and the run ends
with the server's per-request metrics — including the served-key digest that
pins *which* material left the stores.

Run:  python examples/networked_delivery.py
"""

import asyncio
import struct

from repro import QKDSystem
from repro.kms import KmsConfig
from repro.netkms import NetworkKmsClient, ResilientKmsClient, protocol
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

PAIRS = (("endpoint-0", "endpoint-1"), ("endpoint-0", "endpoint-2"))
BANK_BITS = 256 * 1024   # distilled key banked per pair before serving
KEY_BITS = 2048          # one IKE rekey's worth of key per request
REQUESTS_PER_CLIENT = 24


async def sae_fleet(port: int) -> None:
    async def one_sae(name: str, pair: tuple) -> None:
        client = NetworkKmsClient("127.0.0.1", port, client_id=name)
        version = await client.connect()
        offered = await client.capabilities()
        assert pair in offered.pairs
        status = await client.status(pair)
        print(f"  {name}: negotiated v{version}, {len(offered.pairs)} pairs offered; "
              f"{status.available_bits} bits banked for {pair[0]}--{pair[1]}, "
              f"depleting {status.depletion_rate_millibps} millibits/s")
        for _ in range(REQUESTS_PER_CLIENT):
            key = await client.get_key(pair, bits=KEY_BITS)
            assert key.key_bits == KEY_BITS
        await client.close()

    async def legacy_sae(name: str) -> None:
        # A pre-v4 client, by hand: its HELLO offers v1 only, at the floor
        # header byte every generation reads, and so does the refusal.
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        hello = protocol.Hello(min_version=1, max_version=1, client_id=name)
        writer.write(protocol.encode_frame(hello, protocol.FLOOR_VERSION))
        (length,) = struct.unpack("<I", await reader.readexactly(4))
        refusal = protocol.decode_body(await reader.readexactly(length), expected_version=None)
        assert refusal.code == protocol.ERR_VERSION and await reader.read() == b""
        writer.close()
        await writer.wait_closed()
        print(f"  {name}: offered v1 only, refused with "
              f"{protocol.ERROR_NAMES[refusal.code]} ({refusal.detail})")

    async def resilient_sae(name: str, pair: tuple) -> None:
        async with ResilientKmsClient(
            "127.0.0.1", port, rng=DeterministicRNG(7).fork_labeled(f"sae/{name}"), client_id=name
        ) as client:
            for _ in range(REQUESTS_PER_CLIENT):
                key = await client.get_key(pair, bits=KEY_BITS)
                assert key.key_bits == KEY_BITS
            print(f"  {name}: {REQUESTS_PER_CLIENT} keys exactly once, "
                  f"{client.stats.retries} retries")

    await asyncio.gather(
        one_sae("ike-gateway-a", PAIRS[0]),
        one_sae("ike-gateway-b", PAIRS[1]),
        legacy_sae("legacy-gateway"),
        one_sae("otp-encryptor", PAIRS[1]),
        resilient_sae("resilient-gateway", PAIRS[1]),
    )


async def main() -> None:
    print("=== banking distilled key into the mesh service's stores ===")
    mesh = QKDSystem(seed=7).mesh(n_endpoints=3, n_relays=4)
    service = mesh.kms(config=KmsConfig(gateway_pairs=PAIRS))
    rng = DeterministicRNG(7)
    for pair, store in sorted(service.stores.items()):
        store.deposit(BitString.random(BANK_BITS, rng.fork_labeled(f"bank/{pair}")))
        print(f"  {pair[0]}--{pair[1]}: {store.available_bits} bits available")

    print("\n=== serving the stores over TCP (repro.netkms) ===")
    server = service.serve_network(port=0)
    async with server:
        print(f"  listening on {server.host}:{server.port}, "
              f"speaking protocol v{protocol.PROTOCOL_V4}")
        await sae_fleet(server.port)

    report = server.metrics.report()
    print("\n=== what the front end served ===")
    print(f"  requests             {report.requests} "
          f"({report.requests_per_second:.0f}/s)")
    print(f"  keys served          {report.keys_served} "
          f"({report.key_bits_served} bits)")
    print(f"  reserve latency      p50 {report.reserve_latency_p50_seconds * 1e6:.0f} us, "
          f"p99 {report.reserve_latency_p99_seconds * 1e6:.0f} us")
    print(f"  protocol errors      {sum(report.protocol_errors.values())}")
    print(f"  served digest        {report.served_digest[:16]}... "
          f"(order-independent pin over every delivered chunk)")


if __name__ == "__main__":
    asyncio.run(main())
