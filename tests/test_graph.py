"""The mesh's plain-dict graph (repro.network.graph), call by call.

``tests/test_graph_differential.py`` holds the searches to networkx through
the routing, contact-graph and zone layers; these tests pin the graph's own
contract: insertion order, shared edge data, the copies it makes, and the
reachability helpers, on hand-built graphs and against networkx directly.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.graph import (
    Graph,
    NoPath,
    component,
    connected_components,
    hop_distances,
    shortest_path,
)


def build(nodes, edges):
    graph = Graph()
    for node in nodes:
        graph.add_node(node)
    for a, b, *weight in edges:
        graph.add_edge(a, b, **({"w": weight[0]} if weight else {}))
    return graph


def square_with_tail():
    """a-b-c-d-a, a square, with d-e hanging off it; f is isolated."""
    return build(
        "abcdef",
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 5.0), ("d", "e", 1.0)],
    )


def by_weight(_a, _b, data):
    return data["w"]


class TestGraph:
    def test_both_directions_share_one_data_dict(self):
        graph = build("ab", [("a", "b", 2.0)])
        assert graph.adj["a"]["b"] is graph.adj["b"]["a"]
        graph.add_edge("b", "a", w=3.0, kind="fiber")
        assert graph.adj["a"]["b"] == {"w": 3.0, "kind": "fiber"}
        assert graph.number_of_edges() == 1

    def test_add_node_merges_attributes_and_keeps_its_place(self):
        graph = build("ab", [])
        graph.add_node("a", relay=True)
        graph.add_node("a", zone=2)
        assert list(graph.nodes) == ["a", "b"]
        assert graph.nodes["a"] == {"relay": True, "zone": 2}

    def test_edges_come_once_in_node_order(self):
        graph = square_with_tail()
        assert list(graph.edges()) == [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d"), ("d", "e")]
        assert list(graph.edges(data=True))[0] == ("a", "b", {"w": 1.0})

    def test_membership_neighbours_and_counts(self):
        graph = square_with_tail()
        assert "f" in graph and "z" not in graph
        assert graph.has_edge("b", "a") and not graph.has_edge("a", "c")
        assert not graph.has_edge("z", "a")
        assert list(graph.neighbors("d")) == ["c", "a", "e"]
        assert (graph.number_of_nodes(), graph.number_of_edges()) == (6, 5)

    def test_filter_edges_keeps_every_node(self):
        graph = square_with_tail()
        light = graph.filter_edges(lambda a, b, data: data["w"] < 2.0)
        assert list(light.nodes) == list(graph.nodes)
        assert not light.has_edge("a", "d")
        assert light.number_of_edges() == 4
        assert graph.has_edge("a", "d")  # the original is untouched

    def test_subgraph_is_induced_and_shares_attributes(self):
        graph = square_with_tail()
        graph.add_node("a", relay=True)
        sub = graph.subgraph(["e", "a", "d"])
        assert list(sub.nodes) == ["a", "d", "e"]
        assert list(sub.edges()) == [("a", "d"), ("d", "e")]
        assert sub.nodes["a"] is graph.nodes["a"]


class TestSearches:
    def test_fewest_hops_ignores_weights(self):
        assert shortest_path(square_with_tail(), "a", "d") == ["a", "d"]

    def test_least_weight_takes_the_long_way_round(self):
        path = shortest_path(square_with_tail(), "a", "e", weight=by_weight)
        assert path == ["a", "b", "c", "d", "e"]

    def test_a_node_is_its_own_path(self):
        assert shortest_path(square_with_tail(), "f", "f") == ["f"]
        assert shortest_path(square_with_tail(), "f", "f", weight=by_weight) == ["f"]

    @pytest.mark.parametrize("weight", [None, by_weight])
    def test_an_isolated_node_has_no_path(self, weight):
        with pytest.raises(NoPath, match="no path between a and f"):
            shortest_path(square_with_tail(), "a", "f", weight=weight)

    def test_hop_distances_cover_only_the_reachable_nodes(self):
        graph = square_with_tail()
        assert hop_distances(graph, "a") == {"a": 0, "b": 1, "d": 1, "c": 2, "e": 2}
        assert hop_distances(graph, "f") == {"f": 0}

    def test_components(self):
        graph = square_with_tail()
        assert component(graph, "e") == set("abcde")
        assert connected_components(graph) == [set("abcde"), {"f"}]
        assert connected_components(Graph()) == []


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=3 * n))
    return n, edges


class TestAgainstNetworkx:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_reachability_matches(self, spec):
        n, edges = spec
        graph, reference = build(range(n), edges), nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        for source in range(n):
            assert hop_distances(graph, source) == dict(
                nx.single_source_shortest_path_length(reference, source)
            )
        assert sorted(map(sorted, connected_components(graph))) == sorted(
            map(sorted, nx.connected_components(reference))
        )
        assert graph.number_of_edges() == reference.number_of_edges()

    @given(random_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fewest_hops_has_networkx_length(self, spec, data):
        n, edges = spec
        graph, reference = build(range(n), edges), nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        source = data.draw(st.integers(0, n - 1))
        target = data.draw(st.integers(0, n - 1))
        if nx.has_path(reference, source, target):
            path = shortest_path(graph, source, target)
            assert path[0] == source and path[-1] == target
            assert all(graph.has_edge(a, b) for a, b in zip(path, path[1:]))
            assert len(path) - 1 == nx.shortest_path_length(reference, source, target)
        else:
            with pytest.raises(NoPath):
                shortest_path(graph, source, target)
