"""Pluggable forwarding policies: where a custody bundle moves, and when.

Both policies are invoked per live bundle at every transport tick (and once
at submission) and express their decisions through the transport's
``move_copy`` / ``replicate_copy`` primitives, which enforce pad
availability, custody banking, duplicate suppression and delivery.  The
two ends of the DTN trade-off space:

``scheduled``
    Single-copy, plan-driven.  With a contact schedule the bundle follows
    the earliest-arrival route over the contact graph (contact-graph
    routing), advancing along it as far as contacts currently open allow
    and parking at the node where the next contact has not opened yet.
    Without a schedule (live mode) it advances greedily to the reachable
    node nearest the destination — the "furthest reachable custodian".
    Cheapest in pad and storage; delivery is as good as the plan.

``epidemic``
    Multi-copy flooding with duplicate suppression: every open contact
    from a node holding a copy infects the neighbour, unless that
    neighbour has already held one; the flood draws no randomness.  Most
    robust to plan error and most expensive in pad — the overhead the E19
    rows report as copies.

Determinism contract: policies make no unlabeled draws, and iterate
bundles, copies and neighbours in sorted order, so a run's forwarding
history is a pure function of (seed, topology, schedule, demand sequence).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Type

from repro.network.graph import shortest_path
from repro.network.routing import RoutingError

if TYPE_CHECKING:  # circular at runtime: transport builds the policy
    from repro.dtn.store import CustodyBundle
    from repro.dtn.transport import CustodyTransport


class ForwardingPolicy:
    """Decides per-bundle hops when contact windows open."""

    name = ""

    def forward(
        self, transport: "CustodyTransport", bundle: "CustodyBundle", now: float
    ) -> None:
        """Advance ``bundle`` as far as the open contacts allow."""
        raise NotImplementedError


class ScheduledPolicy(ForwardingPolicy):
    """Single-copy earliest-arrival forwarding over the contact graph."""

    name = "scheduled"

    def _route(
        self,
        transport: "CustodyTransport",
        custodian: str,
        destination: str,
        now: float,
        within: Optional[frozenset] = None,
    ) -> List[str]:
        selector = transport.selector
        if selector.schedule is not None:
            path, _arrival = selector.earliest_arrival(custodian, destination, now, within)
            return path
        # Live mode: no plan to consult, so advance toward the reachable
        # node with the smallest static distance to the destination.
        reachable = selector.reachable_at(custodian, now, within)
        best = min(
            reachable,
            key=lambda node: (transport.static_distance(node, destination), node),
        )
        if best == custodian:
            return [custodian]
        return shortest_path(selector.open_subgraph(now, within), custodian, best)

    def forward(
        self, transport: "CustodyTransport", bundle: "CustodyBundle", now: float
    ) -> None:
        (custodian,) = transport.locations(bundle)
        try:
            path = self._route(transport, custodian, bundle.destination, now, bundle.within)
        except RoutingError:
            return  # no route even in the future: park and wait (or expire)
        for node_a, node_b in zip(path, path[1:]):
            if not transport.selector.edge_open(node_a, node_b, now):
                break  # the plan's next contact has not opened yet
            if not transport.move_copy(bundle, node_a, node_b, now):
                break  # pad shortage on the hop: retry at a later tick
            if not bundle.live:
                break  # arrived


class EpidemicPolicy(ForwardingPolicy):
    """Flooding with duplicate suppression.

    One generation of infection per tick: the copy set is snapshotted
    before spreading, so a neighbour infected this tick forwards no earlier
    than the next — keeping the spread order independent of dict/set
    iteration.
    """

    name = "epidemic"

    def forward(
        self, transport: "CustodyTransport", bundle: "CustodyBundle", now: float
    ) -> None:
        graph = transport.network.graph
        for holder in transport.locations(bundle):
            for neighbor in sorted(graph.neighbors(holder)):
                if not bundle.live:
                    return
                if neighbor in bundle.seen:
                    continue  # duplicate suppression: it has held a copy before
                if bundle.within is not None and neighbor not in bundle.within:
                    continue
                if not transport.selector.edge_open(holder, neighbor, now):
                    continue
                transport.replicate_copy(bundle, holder, neighbor, now)


POLICIES: Dict[str, Type[ForwardingPolicy]] = {
    ScheduledPolicy.name: ScheduledPolicy,
    EpidemicPolicy.name: EpidemicPolicy,
}


def build_policy(policy: "str | ForwardingPolicy") -> ForwardingPolicy:
    """Resolve a policy name (or pass an instance through), loudly."""
    if isinstance(policy, ForwardingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown forwarding policy {policy!r} "
            f"(choices: {sorted(POLICIES)})"
        ) from None


__all__ = [
    "POLICIES",
    "EpidemicPolicy",
    "ForwardingPolicy",
    "ScheduledPolicy",
    "build_policy",
]
