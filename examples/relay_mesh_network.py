#!/usr/bin/env python3
"""The DARPA Quantum Network as a mesh: relays, failures and untrusted switches.

Reproduces the architectural arguments of sections 3 and 8 of the paper:

* a point-to-point link dies with its first fiber cut, while a relay mesh
  reroutes and keeps delivering end-to-end key;
* trusted relays extend reach but must be trusted — the example reports which
  relays saw each transported key in the clear;
* untrusted optical switches remove that trust but pay insertion loss, so
  every additional switch lowers the end-to-end key rate;
* interconnecting N enclaves pairwise needs N(N-1)/2 links, a key-distribution
  network needs as few as N.

Run:  python examples/relay_mesh_network.py
"""

from repro.network import (
    QKDNetwork,
    TrustedRelayNetwork,
    UntrustedSwitchNetwork,
    interconnection_cost,
)
from repro.util import DeterministicRNG


def main() -> None:
    print("=== building a metro-area QKD mesh (3 enclaves, 4 trusted relays) ===")
    net = QKDNetwork.relay_mesh(n_endpoints=3, n_relays=4, link_length_km=10.0,
                                rng=DeterministicRNG(1))
    for edge in net.links():
        print(f"  link {edge.node_a:12s} -- {edge.node_b:12s} "
              f"{edge.length_km:4.0f} km   {edge.secret_key_rate_bps:6.0f} secret bits/s")

    relay_net = TrustedRelayNetwork(net, DeterministicRNG(2))
    print("\nletting every link distill pairwise key for 60 seconds ...")
    relay_net.run_links_for(60.0)

    print("\n=== end-to-end key transport, healthy network ===")
    result = relay_net.transport_key("endpoint-0", "endpoint-1", key_bits=256)
    print(f"  delivered 256-bit key over {' -> '.join(result.path)}")
    print(f"  relays that held the key in the clear: {result.relays_exposed}")
    print(f"  pairwise key consumed: {result.pad_bits_consumed} bits")

    print("\n=== fiber cut on the primary path ===")
    primary_hop = (result.path[1], result.path[2])
    net.cut_link(*primary_hop)
    print(f"  cut link {primary_hop[0]} -- {primary_hop[1]}")
    rerouted = relay_net.transport_with_reroute("endpoint-0", "endpoint-1", key_bits=256)
    print(f"  delivery still succeeds: {rerouted.success}, new path {' -> '.join(rerouted.path)}")

    print("\n=== eavesdropping detected on another link ===")
    second_hop = (rerouted.path[1], rerouted.path[2])
    net.mark_eavesdropped(*second_hop)
    print(f"  link {second_hop[0]} -- {second_hop[1]} flagged by its QKD protocols")
    third = relay_net.transport_with_reroute("endpoint-0", "endpoint-1", key_bits=256)
    if third.success:
        print(f"  mesh still delivers: path {' -> '.join(third.path)}")
    else:
        print(f"  delivery failed: {third.failure_reason}")

    print("\n=== the same scenario on a bare point-to-point link ===")
    p2p = QKDNetwork.point_to_point()
    p2p_relays = TrustedRelayNetwork(p2p, DeterministicRNG(3))
    p2p_relays.run_links_for(60.0)
    ok = p2p_relays.transport_key("alice", "bob").success
    p2p.cut_link("alice", "bob")
    dead = p2p_relays.transport_key("alice", "bob")
    print(f"  before the cut: delivery {'succeeds' if ok else 'fails'}")
    print(f"  after the cut:  {dead.failure_reason}")

    print("\n=== untrusted all-optical switch paths ===")
    print("  switches need no trust, but each adds insertion loss:")
    for n_switches in range(0, 7):
        report = UntrustedSwitchNetwork.chain(n_switches, span_length_km=5.0)
        status = f"{report.secret_key_rate_bps:7.0f} bits/s" if report.viable else "   no key"
        print(f"    {n_switches} switches, {report.fiber_length_km:4.0f} km fiber, "
              f"{report.total_loss_db:4.1f} dB total: {status}")

    print("\n=== interconnection cost for N enclaves ===")
    for n in (2, 4, 8, 16, 32):
        cost = interconnection_cost(n)
        print(f"  N={n:2d}: pairwise {cost['pairwise_links']:4d} links, "
              f"QKD network (star) {cost['star_links']:3d} links")


if __name__ == "__main__":
    main()
