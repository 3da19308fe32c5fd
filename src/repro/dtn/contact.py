"""Contact schedules and contact-graph routing over an intermittent mesh.

The trusted-relay mesh of the paper assumes a live end-to-end path whenever
key material must move.  A disruption-tolerant deployment — satellite
passes, mobile relays, scheduled fiber maintenance — replaces that
assumption with a *contact plan*: per-link windows during which the link
can actually carry material.  This module provides

* :class:`ContactWindow` / :class:`ContactSchedule` — the plan itself;
* :class:`ContactGraphSelector` — a :class:`~repro.network.routing
  .PathSelector` that knows the plan: which nodes are reachable over the
  edges open *now* (:meth:`ContactGraphSelector.reachable_at`) and
  earliest-arrival routing over the time-varying contact graph
  (:meth:`ContactGraphSelector.earliest_arrival`, the contact-graph-routing
  primitive the scheduled forwarding policy plans with).

Edges absent from a schedule are treated as always-available; the live
``usable`` flag of every edge (cuts, detected eavesdroppers) still gates
regardless of the plan, so a scheduled contact over a cut fiber is not a
contact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.graph import Graph, component
from repro.network.routing import PathSelector, RoutingError
from repro.network.topology import QKDNetwork

Edge = Tuple[str, str]


@dataclass(frozen=True)
class ContactWindow:
    """One contact: the edge can carry material on ``[start, end)``.

    ``end`` may be ``math.inf`` (the link stays up once its last known
    outage heals).
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("a contact window must end at or after it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def open_at(self, time: float) -> bool:
        return self.start <= time < self.end


def _normalise(windows: Sequence[ContactWindow]) -> Tuple[ContactWindow, ...]:
    """Sort, merge overlapping/adjacent windows, drop zero-duration ones."""
    ordered = sorted(
        (w for w in windows if w.duration > 0), key=lambda w: (w.start, w.end)
    )
    merged: List[ContactWindow] = []
    for window in ordered:
        if merged and window.start <= merged[-1].end:
            if window.end > merged[-1].end:
                merged[-1] = ContactWindow(merged[-1].start, window.end)
            continue
        merged.append(window)
    return tuple(merged)


class ContactSchedule:
    """Per-edge contact plans, keyed by the sorted node pair.

    An edge with no plan is *unscheduled*: treated as always-open (subject
    to its live ``usable`` flag).  An edge with a plan is open exactly
    during its windows — an empty plan means the edge never opens.
    """

    def __init__(self):
        self._windows: Dict[Edge, Tuple[ContactWindow, ...]] = {}

    @staticmethod
    def _key(node_a: str, node_b: str) -> Edge:
        return tuple(sorted((node_a, node_b)))

    def set_windows(
        self, node_a: str, node_b: str, windows: Sequence[ContactWindow]
    ) -> None:
        self._windows[self._key(node_a, node_b)] = _normalise(windows)

    def windows_for(self, node_a: str, node_b: str) -> Optional[Tuple[ContactWindow, ...]]:
        """The edge's plan, or ``None`` for an unscheduled (always-open) edge."""
        return self._windows.get(self._key(node_a, node_b))

    def is_open(self, node_a: str, node_b: str, time: float) -> bool:
        windows = self.windows_for(node_a, node_b)
        if windows is None:
            return True
        return any(w.open_at(time) for w in windows)

    def next_open(self, node_a: str, node_b: str, time: float) -> Optional[float]:
        """The earliest instant ``>= time`` the edge is open (``time`` itself
        if open now); ``None`` if the plan never opens it again."""
        windows = self.windows_for(node_a, node_b)
        if windows is None:
            return time
        for window in windows:
            if window.open_at(time):
                return time
            if window.start >= time and window.duration > 0:
                return window.start
        return None

    def boundary_times(self, horizon: float = math.inf) -> List[float]:
        """Every distinct finite window edge (starts and ends) up to
        ``horizon`` — the instants at which the contact graph changes, hence
        the natural tick schedule for a store-and-forward engine."""
        times = set()
        for windows in self._windows.values():
            for window in windows:
                for t in (window.start, window.end):
                    if math.isfinite(t) and t <= horizon:
                        times.add(t)
        return sorted(times)

    def __repr__(self) -> str:
        scheduled = len(self._windows)
        windows = sum(len(w) for w in self._windows.values())
        return f"ContactSchedule({scheduled} edges, {windows} windows)"


class ContactGraphSelector(PathSelector):
    """A path selector that knows when edges are available, not just whether.

    With ``schedule=None`` it degrades to *live mode*: an edge is open iff
    its ``usable`` flag is set right now — the view a relay has of a mesh
    whose outages it cannot predict.  With a schedule it additionally
    honours the contact plan, and can plan ahead with
    :meth:`earliest_arrival`.
    """

    def __init__(
        self,
        network: QKDNetwork,
        schedule: Optional[ContactSchedule] = None,
        metric: str = "hops",
    ):
        super().__init__(network, metric=metric)
        self.schedule = schedule

    # ------------------------------------------------------------------ #
    # The instantaneous contact graph
    # ------------------------------------------------------------------ #

    def edge_open(self, node_a: str, node_b: str, time: float) -> bool:
        """Whether material can cross the edge at ``time`` (live state AND
        contact plan)."""
        if not self.network.link(node_a, node_b).usable:
            return False
        if self.schedule is None:
            return True
        return self.schedule.is_open(node_a, node_b, time)

    def open_subgraph(self, time: float, within: Optional[frozenset] = None) -> Graph:
        """The subgraph of edges open at ``time`` (all nodes, or ``within``'s, retained)."""
        graph = self.network.graph if within is None else self.network.graph.subgraph(within)
        return graph.filter_edges(
            lambda node_a, node_b, _data: self.edge_open(node_a, node_b, time)
        )

    def reachable_at(
        self, source: str, time: float, within: Optional[frozenset] = None
    ) -> List[str]:
        """All nodes reachable from ``source`` over edges open at ``time``,
        through ``within`` if given (sorted; always contains ``source``)."""
        open_graph = self.open_subgraph(time, within)
        if source not in open_graph:
            raise RoutingError(f"unknown node {source!r}")
        return sorted(component(open_graph, source))

    # ------------------------------------------------------------------ #
    # Contact-graph routing (earliest arrival)
    # ------------------------------------------------------------------ #

    def earliest_arrival(
        self, source: str, destination: str, start_time: float, within: Optional[frozenset] = None
    ) -> Tuple[List[str], float]:
        """The route minimising arrival time over the contact plan (through
        ``within`` if given).

        Dijkstra over time: material sitting at a node waits for the next
        contact window of each outgoing edge and crosses instantaneously
        within it (hop transmission time is negligible against window
        durations at QKD key-block sizes).  Returns ``(path, arrival_time)``;
        raises :class:`RoutingError` when no sequence of future contacts
        ever connects the two nodes.  Requires a schedule (live mode cannot
        see the future).
        """
        if self.schedule is None:
            raise RoutingError(
                "earliest-arrival routing needs a contact schedule "
                "(live mode only knows the present)"
            )
        graph = self.network.graph if within is None else self.network.graph.subgraph(within)
        for name in (source, destination):
            if name not in graph:
                raise RoutingError(
                    f"unknown node {name!r} in route {source!r} -> {destination!r}"
                )
        best: Dict[str, float] = {source: start_time}
        parent: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(start_time, source)]
        while heap:
            time, node = heapq.heappop(heap)
            if time > best.get(node, math.inf):
                continue
            if node == destination:
                break
            for neighbor in sorted(graph.neighbors(node)):
                if not self.network.link(node, neighbor).usable:
                    continue
                opens = self.schedule.next_open(node, neighbor, time)
                if opens is None:
                    continue
                if opens < best.get(neighbor, math.inf):
                    best[neighbor] = opens
                    parent[neighbor] = node
                    heapq.heappush(heap, (opens, neighbor))
        if destination not in best:
            reached = sorted(best)
            raise RoutingError(
                f"no future contact path from {source!r} to {destination!r} "
                f"starting t={start_time:g}s; {len(reached)} node(s) ever "
                f"reachable from {source!r}: {', '.join(reached)}"
            )
        path = [destination]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path, best[destination]


__all__ = [
    "ContactGraphSelector",
    "ContactSchedule",
    "ContactWindow",
]
