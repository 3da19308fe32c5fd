#!/usr/bin/env python3
"""A Virtual Private Network keyed by quantum cryptography (paper section 7).

This example reproduces the paper's headline scenario end to end:

1. a weak-coherent QKD link distills key into Alice's and Bob's key pools;
2. two VPN gateways bring up IKE with the QKD (Qblock) extension;
3. an AES tunnel protects ordinary enclave traffic, reseeding its keys from
   fresh QKD bits on every rollover ("about once a minute");
4. a second, one-time-pad tunnel carries the most sensitive traffic;
5. the racoon-style log of the negotiations — the modern equivalent of the
   paper's Fig 12 — is printed at the end.

Run:  python examples/qkd_vpn_tunnel.py
"""

from repro import QKDSystem
from repro.ipsec import CipherSuite


def main() -> None:
    print("distilling QKD key for 3 channel-seconds ...")
    vpn = QKDSystem(seed=42, distill_seconds=3.0).vpn()
    report = vpn.initial_report
    print(
        f"  QBER {report.mean_qber:.1%}, {report.distilled_bits} bits distilled "
        f"({report.distilled_rate_bps:.0f} bits/s)"
    )
    engine = vpn.link.engine
    pair = vpn.gateways

    # Top the pools up so the example can run several rekeys without waiting
    # for minutes of simulated channel time (a long-running deployment would
    # simply keep the link running).
    vpn.top_up(40_000)

    vpn.secure_tunnel(
        "enclave-traffic",
        "10.1.0.0/16",
        "10.2.0.0/16",
        cipher_suite=CipherSuite.AES_QKD_RESEED,
        lifetime_seconds=60.0,          # rekey about once a minute
        qkd_bits_per_rekey=1024,        # one Qblock per rekey
    )
    vpn.secure_tunnel(
        "sensitive-traffic",
        "10.1.50.0/24",
        "10.2.50.0/24",
        cipher_suite=CipherSuite.ONE_TIME_PAD,
        qkd_bits_per_rekey=16_384,      # pad material for the next interval
    )
    print("\nIKE Phase 1 established between gateways "
          f"{pair.alice.name} and {pair.bob.name}")

    # --- ordinary AES-protected traffic, across several rollovers --------- #
    print("\nsending enclave traffic across three key rollovers ...")
    for minute in range(3):
        for packet_index in range(5):
            payload = f"minute {minute} packet {packet_index}: business as usual".encode()
            delivered = vpn.send("10.1.0.10", "10.2.0.20", payload)
            assert delivered is not None and delivered.payload == payload
        vpn.advance_time(61.0)  # expire the SA so the next packet triggers rollover
    alice_stats = pair.alice.statistics
    print(
        f"  {alice_stats.packets_sent} packets protected, "
        f"{alice_stats.negotiations} IKE phase-2 negotiations, "
        f"QKD bits consumed by IKE: {pair.alice.ike.qkd_bits_consumed}"
    )

    # --- one-time-pad traffic --------------------------------------------- #
    print("\nsending sensitive traffic over the one-time-pad tunnel ...")
    secret = b"launch codes are stored in the usual filing cabinet"
    delivered = vpn.send("10.1.50.1", "10.2.50.1", secret)
    assert delivered is not None and delivered.payload == secret
    print("  delivered intact; pad bytes consumed: "
          f"{len(secret) + 64} (payload plus encapsulation overhead)")

    # --- Fig 12: the negotiation log --------------------------------------- #
    print("\n=== racoon log (compare with Fig 12 of the paper) ===")
    for line in pair.bob.ike.log_lines:
        print("  " + line)

    print("\nremaining key: "
          f"alice={engine.alice_pool.available_bits} bits, "
          f"bob={engine.bob_pool.available_bits} bits")


if __name__ == "__main__":
    main()
