"""An undirected graph on insertion-ordered dicts, and the searches over it.

The mesh needs few graph operations — build, copy the usable part, look up
a link, find a shortest path, find what is reachable — so they live here on
plain dicts rather than in a graph library every mesh process would import.
:class:`Graph` keeps ``{node: {neighbour: edge data}}`` adjacency in
insertion order; both directions of an edge share one data dict.  The
searches see neighbours in that order and, between equal-cost paths, keep
the first they find: which path comes back depends on the order the edges
went in.

:func:`shortest_path` ports, step for step, the bidirectional searches of
the graph library the tests hold it to (``tests/oracles/``): Dijkstra with a
weight, breadth-first without one, with the same heap entries and insertion
counter, the same alternation of directions and the same rule for which
fringe grows next.  Equal-cost paths are everywhere on the ``hops`` metric,
so the port keeps every detail that picks among them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Set

#: ``weight(node, neighbour, edge_data)``: the cost of crossing one edge.
Weight = Callable[[Hashable, Hashable, Dict[str, Any]], float]


class NoPath(Exception):
    """No path joins the two nodes."""


class Graph:
    """An undirected graph: nodes and edges carry attribute dicts.

    ``nodes`` is ``{node: attributes}`` and ``adj`` is ``{node: {neighbour:
    edge attributes}}``, both in insertion order; read them, and change the
    graph only through :meth:`add_node` and :meth:`add_edge`.
    """

    __slots__ = ("nodes", "adj")

    def __init__(self) -> None:
        self.nodes: Dict[Hashable, dict] = {}
        self.adj: Dict[Hashable, Dict[Hashable, dict]] = {}

    def add_node(self, node: Hashable, /, **attrs) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self.adj[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, node_a: Hashable, node_b: Hashable, /, **attrs) -> None:
        """Join two nodes already added; an existing edge keeps its place
        and has its attributes updated."""
        neighbours_a, neighbours_b = self.adj[node_a], self.adj[node_b]
        data = neighbours_a.get(node_b, {})
        data.update(attrs)
        neighbours_a[node_b] = data
        neighbours_b[node_a] = data

    def edges(self, data: bool = False) -> Iterator[tuple]:
        """Each edge once, from whichever end comes first in node order."""
        seen = set()
        for node, neighbours in self.adj.items():
            for neighbour, attrs in neighbours.items():
                if neighbour not in seen:
                    yield (node, neighbour, attrs) if data else (node, neighbour)
            seen.add(node)

    def has_edge(self, node_a: Hashable, node_b: Hashable) -> bool:
        return node_a in self.adj and node_b in self.adj[node_a]

    def neighbors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self.adj[node])

    def filter_edges(self, keep: Callable[[Hashable, Hashable, dict], bool]) -> "Graph":
        """A copy with every node and the edges ``keep(a, b, data)`` passes.

        The copy adds its edges in :meth:`edges` order, so its neighbour
        orders — hence the searches' tie-breaks — are a function of this
        graph's alone; the tests' reference copies are made the same way.
        """
        copy = Graph()
        for node, attrs in self.nodes.items():
            copy.add_node(node, **attrs)
        for node_a, node_b, data in self.edges(data=True):
            if keep(node_a, node_b, data):
                copy.add_edge(node_a, node_b, **data)
        return copy

    def subgraph(self, nodes: Iterable[Hashable]) -> "Graph":
        """The subgraph induced by ``nodes``: a new graph sharing this one's
        attribute dicts, in this one's order."""
        keep = set(nodes)
        sub = Graph()
        for node, attrs in self.nodes.items():
            if node in keep:
                sub.nodes[node] = attrs
                sub.adj[node] = {n: d for n, d in self.adj[node].items() if n in keep}
        return sub

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return sum(1 for _ in self.edges())

    def __contains__(self, node: object) -> bool:
        return node in self.nodes


def shortest_path(
    graph: Graph, source: Hashable, target: Hashable, weight: Optional[Weight] = None
) -> List[Hashable]:
    """A shortest path, ends inclusive: fewest edges without ``weight``,
    least total ``weight`` with it.  Raises :class:`NoPath`."""
    if source == target:
        return [source]
    if weight is None:
        return _fewest_hops(graph.adj, source, target)
    return _least_weight(graph.adj, source, target, weight)


def _least_weight(adj, source, target, weight: Weight) -> List[Hashable]:
    """Bidirectional Dijkstra: the two searches take turns, each settling
    its nearest unsettled node, until one node is settled by both."""
    dists: List[dict] = [{}, {}]
    preds: List[dict] = [{source: None}, {target: None}]
    seen: List[dict] = [{source: 0}, {target: 0}]
    fringe: List[list] = [[], []]
    counter = count()
    heappush(fringe[0], (0, next(counter), source))
    heappush(fringe[1], (0, next(counter), target))
    finaldist = meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, node = heappop(fringe[direction])
        if node in dists[direction]:
            continue
        dists[direction][node] = dist
        if node in dists[1 - direction]:
            return _join(preds[0], preds[1], meetnode)
        for neighbour, data in adj[node].items():
            if neighbour in dists[direction]:
                continue
            if direction == 0:
                length = dist + weight(node, neighbour, data)
            else:
                length = dist + weight(neighbour, node, data)
            if neighbour not in seen[direction] or length < seen[direction][neighbour]:
                seen[direction][neighbour] = length
                heappush(fringe[direction], (length, next(counter), neighbour))
                preds[direction][neighbour] = node
                if neighbour in seen[1 - direction]:
                    total = length + seen[1 - direction][neighbour]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, neighbour
    raise NoPath(f"no path between {source} and {target}")


def _fewest_hops(adj, source, target) -> List[Hashable]:
    """Bidirectional breadth-first search: the smaller fringe (the forward
    one on a tie) grows by one level until the two searches meet."""
    parents = ({source: None}, {target: None})
    fringes = [[source], [target]]
    while fringes[0] and fringes[1]:
        side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
        mine, theirs = parents[side], parents[1 - side]
        level, fringes[side] = fringes[side], []
        for node in level:
            for neighbour in adj[node]:
                if neighbour not in mine:
                    mine[neighbour] = node
                    fringes[side].append(neighbour)
                if neighbour in theirs:
                    return _join(parents[0], parents[1], neighbour)
    raise NoPath(f"no path between {source} and {target}")


def _join(pred: dict, succ: dict, meet: Hashable) -> List[Hashable]:
    """The path source → ``meet`` → target from the two searches' parents."""
    path: List[Hashable] = []
    step = meet
    while step is not None:
        path.append(step)
        step = pred[step]
    path.reverse()
    step = succ[meet]
    while step is not None:
        path.append(step)
        step = succ[step]
    return path


def hop_distances(graph: Graph, source: Hashable) -> Dict[Hashable, int]:
    """``{node: edges from source}`` for every node reachable from ``source``."""
    distances = {source: 0}
    level = [source]
    hops = 0
    while level:
        hops += 1
        next_level = []
        for node in level:
            for neighbour in graph.adj[node]:
                if neighbour not in distances:
                    distances[neighbour] = hops
                    next_level.append(neighbour)
        level = next_level
    return distances


def component(graph: Graph, node: Hashable) -> Set[Hashable]:
    """The nodes reachable from ``node``, itself included."""
    return set(hop_distances(graph, node))


def connected_components(graph: Graph) -> List[Set[Hashable]]:
    """The graph's connected components; one for a connected graph, none
    for an empty one."""
    components: List[Set[Hashable]] = []
    placed: Set[Hashable] = set()
    for node in graph.nodes:
        if node not in placed:
            components.append(component(graph, node))
            placed |= components[-1]
    return components
