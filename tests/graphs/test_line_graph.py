"""Tests for line graphs, cross-checked against networkx as an oracle."""

import networkx as nx
import pytest

from repro.graphs.generators import (
    complete_bipartite,
    cycle_graph,
    matching_graph,
    path_graph,
    random_bipartite_gnm,
    star_graph,
)
from repro.graphs.line_graph import is_claw_free, line_graph
from repro.graphs.simple import Graph


class TestLineGraphStructure:
    def test_path_line_graph_is_path(self):
        lg = line_graph(path_graph(4))
        assert lg.num_vertices == 4
        assert lg.num_edges == 3
        degrees = sorted(lg.degree(v) for v in lg.vertices)
        assert degrees == [1, 1, 2, 2]

    def test_star_line_graph_is_clique(self):
        lg = line_graph(star_graph(4))
        assert lg.num_vertices == 4
        assert lg.num_edges == 6  # K4

    def test_cycle_line_graph_is_cycle(self):
        lg = line_graph(cycle_graph(6))
        assert lg.num_vertices == 6
        assert all(lg.degree(v) == 2 for v in lg.vertices)

    def test_matching_line_graph_has_no_edges(self):
        lg = line_graph(matching_graph(4))
        assert lg.num_vertices == 4
        assert lg.num_edges == 0

    def test_complete_bipartite_line_graph_size(self):
        # L(K_{k,l}) has kl nodes; edges: kl(k+l-2)/2 (rook's graph).
        k, l = 3, 4
        lg = line_graph(complete_bipartite(k, l))
        assert lg.num_vertices == k * l
        assert lg.num_edges == k * l * (k + l - 2) // 2


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_line_graph(self, seed):
        g = random_bipartite_gnm(4, 4, 8, seed=seed)
        ours = line_graph(g)
        nx_graph = nx.Graph(g.edges())
        theirs = nx.line_graph(nx_graph)
        assert ours.num_vertices == theirs.number_of_nodes()
        assert ours.num_edges == theirs.number_of_edges()


class TestClawFree:
    @pytest.mark.parametrize("seed", range(8))
    def test_line_graphs_are_claw_free(self, seed):
        g = random_bipartite_gnm(4, 5, 10, seed=seed)
        assert is_claw_free(line_graph(g))

    def test_star_itself_is_not_claw_free(self):
        claw = Graph(edges=[("c", "a"), ("c", "b"), ("c", "d")])
        assert not is_claw_free(claw)

    def test_claw_with_extra_edge_is_claw_free(self):
        g = Graph(edges=[("c", "a"), ("c", "b"), ("c", "d"), ("a", "b")])
        # a,b adjacent; any 3 neighbors of c include an adjacent pair.
        assert is_claw_free(g)


class TestWeights:
    def test_tsp_weight_good_and_bad(self):
        g = path_graph(3)
        lg = line_graph(g)
        edges = g.edges()
        # Consecutive path edges share a vertex: weight 1.
        sharing = [
            (e1, e2)
            for e1 in edges
            for e2 in edges
            if e1 != e2 and set(e1) & set(e2)
        ]
        e1, e2 = sharing[0]
        assert lg.complement_weight(e1, e2) == 1
        disjoint = [
            (e1, e2)
            for e1 in edges
            for e2 in edges
            if e1 != e2 and not set(e1) & set(e2)
        ]
        e1, e2 = disjoint[0]
        assert lg.complement_weight(e1, e2) == 2

    def test_good_degree_equals_line_degree(self):
        # The weight-1 (good) pairs at a node are its L(G) edges.
        g = star_graph(3)
        lg = line_graph(g)
        for node in lg.vertices:
            good = [
                other
                for other in lg.vertices
                if other != node and lg.complement_weight(node, other) == 1
            ]
            assert len(good) == lg.degree(node)
