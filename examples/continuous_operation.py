#!/usr/bin/env python3
"""The network *operated*: a multi-hour key-management soak with failures.

The paper's contribution is a continuously running QKD network, so this
example runs one: a 9-node relay mesh (5 endpoints, 4 relays) serves ten
IPsec gateway pairs' rekey demand for two simulated hours through
``repro.kms`` — links distill pairwise key epoch by epoch, end-to-end keys
are relayed into per-pair stores, IKE daemons drain the stores under a
Poisson rekey workload, and mid-run the mesh loses a link to a DoS cut and
another to a detected eavesdropper, rerouting both times.

Run:  python examples/continuous_operation.py
"""

from repro import QKDSystem
from repro.eve.intercept_resend import InterceptResendAttack
from repro.kms import KmsConfig, ReplenishmentConfig


def main() -> None:
    print("=== bringing up the mesh and its key-management service ===")
    mesh = QKDSystem(seed=7).mesh(n_endpoints=5, n_relays=4, prefill_seconds=0.0)
    service = mesh.kms(
        config=KmsConfig(replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1))
    )
    print(f"  {len(service.pairs)} gateway pairs over {service.relays.network!r}")

    print("\narming failures: DoS cut at t=30min, eavesdropper at t=60min,")
    print("gone at t=100min, when the link she sat on is restored ...")
    service.schedule_link_cut(1800.0, "relay-0", "relay-1")
    service.schedule_attack(3600.0, "relay-2", "relay-3", InterceptResendAttack(1.0))
    service.schedule_attack_end(6000.0, "relay-2", "relay-3")
    service.schedule_link_restore(6000.0, "relay-2", "relay-3")

    print("serving 2 simulated hours of rekey demand ...\n")
    report = service.serve(hours=2.0)

    print("=== what the network sustained ===")
    print(f"  rekey demands        {report.demands}")
    print(f"  rekeys completed     {report.rekeys_completed}")
    print(f"  rekeys timed out     {report.rekeys_timed_out}")
    print(f"  starvation events    {report.starvation_events}")
    print(f"  delivered keys       {report.delivered_keys} "
          f"({report.delivered_key_bits} bits, {report.key_bits_per_second:.1f} bits/s)")
    print(f"  rekey latency        p50 {report.rekey_latency_p50_seconds:.2f} s, "
          f"p99 {report.rekey_latency_p99_seconds:.2f} s")
    print(f"  reroutes             {report.reroutes}")
    caught = [f"{a}--{b} in epoch {epoch.epoch_index}"
              for epoch in service.replenisher.reports for a, b in epoch.newly_eavesdropped]
    print(f"  eavesdropper caught  {', '.join(caught) or 'never'}")
    print(f"  still quarantined    {report.eavesdropped_links}")
    print(f"  delivered digest     {report.delivered_digest[:16]}... "
          f"(bit-identical for any worker count)")


if __name__ == "__main__":
    main()
