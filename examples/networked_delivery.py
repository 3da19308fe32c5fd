#!/usr/bin/env python3
"""Networked key delivery: SAE clients drawing key from a KMS over TCP.

``continuous_operation.py`` shows the *production* side — the replenishment
loop distilling key into per-pair stores.  This example shows the
*consumption* side: the same mesh service puts its stores behind the
``repro.netkms`` asyncio front end, and a fleet of concurrent SAE clients
(think IKE daemons) draws keys over the versioned binary protocol.  A
deliberately old v1-only client joins the fleet to show the HELLO/WELCOME
negotiation stepping down, a resilient client (reconnect, retry and
exactly-once ``get_key``) draws beside them, and the run ends with the
server's per-request metrics — including the served-key digest that pins *which* material left
the stores.

Run:  python examples/networked_delivery.py
"""

import asyncio

from repro import QKDSystem
from repro.kms import KmsConfig
from repro.netkms import NetworkKmsClient, ResilientKmsClient
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

PAIRS = (("endpoint-0", "endpoint-1"), ("endpoint-0", "endpoint-2"))
BANK_BITS = 256 * 1024   # distilled key banked per pair before serving
KEY_BITS = 2048          # one IKE rekey's worth of key per request
REQUESTS_PER_CLIENT = 24


async def sae_fleet(port: int) -> None:
    async def one_sae(name: str, pair: tuple, versions: tuple) -> None:
        client = NetworkKmsClient("127.0.0.1", port, versions=versions, client_id=name)
        version = await client.connect()
        offered = await client.capabilities()
        assert pair in offered.pairs
        status = await client.status(pair)
        rate = (
            f", depleting {status.depletion_rate_millibps} millibits/s"
            if version >= 2 else ""  # the v2-only trailing field
        )
        print(f"  {name}: negotiated v{version}, {len(offered.pairs)} pairs offered; "
              f"{status.available_bits} bits banked for {pair[0]}--{pair[1]}{rate}")
        for _ in range(REQUESTS_PER_CLIENT):
            key = await client.get_key(pair, bits=KEY_BITS)
            assert key.key_bits == KEY_BITS
        await client.close()

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
        one_sae("ike-gateway-a", PAIRS[0], versions=(1, 2)),
        one_sae("ike-gateway-b", PAIRS[1], versions=(1, 2)),
        one_sae("legacy-gateway", PAIRS[0], versions=(1,)),  # v1-only: negotiates down
        one_sae("otp-encryptor", PAIRS[1], versions=(1, 2)),
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
              f"offering protocol v{server.versions[0]}..v{server.versions[-1]}")
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
