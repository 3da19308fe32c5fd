#!/usr/bin/env python3
"""Metro-scale key management: zones, trunk stores, aggregate demand.

The paper sketches a metro-area QKD network; this example operates one.  A
four-zone metro mesh (each zone a relay ring with endpoints, gateways
joined by trunk links) serves every cross-city gateway pair for a simulated
hour.  Replenishment is hierarchical — each zone schedules only its own
links, the trunk scheduler only the zone crossings — and inter-zone pairs
draw end-to-end key through per-zone-pair trunk stores instead of
transporting across the whole mesh.  Demand is a compound-Poisson
*aggregate* workload: each pair fronts fifty thousand tunnels whose rekey
storms arrive in heavy-tailed bursts, with no per-tunnel objects anywhere.

Everything hangs off one config object and its builders::

    KmsConfig().with_workload(AggregateProfile.storm(...))  # + .with_zones(...)

(the metro mesh carries its own ZonePlan, which ``kms()`` adopts).

Run:  python examples/metro_scale_kms.py
"""

from repro import AggregateProfile, KmsConfig, QKDSystem
from repro.kms import ReplenishmentConfig


def main() -> None:
    print("=== building the metro mesh ===")
    metro = QKDSystem(seed=2003).metro(
        n_zones=4, endpoints_per_zone=3, relays_per_zone=3, prefill_seconds=120.0
    )
    plan = metro.zone_plan
    print(f"  {plan!r}")
    print(f"  gateways: {dict(sorted(plan.gateways.items()))}")

    config = (
        KmsConfig(
            replenishment=ReplenishmentConfig(epoch_seconds=120.0),
            store_high_water_bits=16_384,
            transport_key_bits=2_048,
        ).with_workload(
            AggregateProfile.storm(
                tunnels=50_000, mean_interval_seconds=600.0, alpha=2.2
            )
        )
        # .with_zones(...) would override the mesh's own plan here.
    )
    service = metro.kms(config)
    inter = sum(1 for p in service.pairs if not plan.same_zone(p))
    print(
        f"  {len(service.pairs)} gateway pairs "
        f"({inter} inter-zone via {len(service.trunk_stores)} trunk stores)"
    )

    print("\nserving 1 simulated hour of metro rekey demand ...\n")
    report = service.serve(hours=1.0)

    print("=== what the metro sustained ===")
    print(f"  zones                {report.zones}")
    print(f"  rekey demands        {report.demands}")
    print(f"  rekeys completed     {report.rekeys_completed}")
    print(f"  rekeys timed out     {report.rekeys_timed_out}")
    print(f"  delivered keys       {report.delivered_keys} "
          f"({report.key_bits_per_second:.1f} bits/s)")
    print(f"  trunk keys banked    {report.trunk_keys_delivered} "
          f"({report.trunk_key_bits} bits)")
    print(f"  rekey latency        p50 {report.rekey_latency_p50_seconds:.2f} s, "
          f"p99 {report.rekey_latency_p99_seconds:.2f} s")
    print(f"  scheduler overhead   {report.scheduler_overhead_per_epoch_seconds * 1e3:.3f} ms/epoch")
    print(f"  delivered digest     {report.delivered_digest[:16]}... "
          f"(bit-identical for any worker count)")


if __name__ == "__main__":
    main()
