"""Tests for the graph generators."""

import pytest

from repro.errors import GraphError
from repro.graphs.components import betti_number, is_connected
from repro.graphs.generators import (
    all_small_bipartite_graphs,
    complete_bipartite,
    cycle_graph,
    double_star,
    grid_graph,
    incidence_graph,
    matching_graph,
    path_graph,
    random_bipartite_gnm,
    random_bipartite_gnp,
    random_connected_bipartite,
    random_tsp12_graph,
    spider_graph,
    star_graph,
    union_of_bicliques,
)
from repro.graphs.simple import Graph


class TestDeterministicGenerators:
    def test_complete_bipartite_shape(self):
        g = complete_bipartite(3, 4)
        assert len(g.left) == 3 and len(g.right) == 4
        assert g.num_edges == 12
        assert g.is_complete_bipartite()

    def test_complete_bipartite_negative(self):
        with pytest.raises(GraphError):
            complete_bipartite(-1, 2)

    def test_matching(self):
        g = matching_graph(3)
        assert g.is_matching()
        assert betti_number(g) == 3

    def test_path_degrees(self):
        g = path_graph(5)
        degrees = sorted(g.degree(v) for v in list(g.left) + list(g.right))
        assert degrees == [1, 1, 2, 2, 2, 2]

    def test_path_needs_an_edge(self):
        with pytest.raises(GraphError):
            path_graph(0)

    def test_cycle_regular(self):
        g = cycle_graph(8)
        assert all(g.degree(v) == 2 for v in list(g.left) + list(g.right))
        assert g.num_edges == 8

    def test_cycle_rejects_odd(self):
        with pytest.raises(GraphError):
            cycle_graph(5)

    def test_star(self):
        g = star_graph(4)
        assert g.degree("u0") == 4
        assert g.num_edges == 4

    def test_double_star(self):
        g = double_star(2, 3)
        assert g.num_edges == 6
        assert is_connected(g)

    def test_union_of_bicliques(self):
        g = union_of_bicliques([(2, 2), (3, 1)])
        assert g.num_edges == 7
        assert betti_number(g) == 2

    def test_spider(self):
        g = spider_graph(4)
        assert g.num_edges == 8
        assert g.degree("v0") == 2  # star leaf + pendant

    def test_grid(self):
        g = grid_graph(3, 3)
        assert g.num_edges == 12
        assert is_connected(g)


class TestRandomGenerators:
    def test_gnm_exact_edge_count(self):
        g = random_bipartite_gnm(5, 5, 12, seed=0)
        assert g.num_edges == 12

    def test_gnm_too_many_edges(self):
        with pytest.raises(GraphError):
            random_bipartite_gnm(2, 2, 5)

    def test_gnm_deterministic(self):
        g1 = random_bipartite_gnm(4, 4, 7, seed=42)
        g2 = random_bipartite_gnm(4, 4, 7, seed=42)
        assert g1 == g2

    def test_gnp_bounds(self):
        g = random_bipartite_gnp(4, 4, 1.0, seed=0)
        assert g.num_edges == 16
        g = random_bipartite_gnp(4, 4, 0.0, seed=0)
        assert g.num_edges == 0

    def test_gnp_invalid_p(self):
        with pytest.raises(GraphError):
            random_bipartite_gnp(2, 2, 1.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_connected_is_connected(self, seed):
        g = random_connected_bipartite(5, 4, extra_edges=2, seed=seed)
        assert is_connected(g)
        assert g.num_edges >= 8  # spanning tree size

    def test_random_connected_shares_vertex_labels(self):
        g = random_connected_bipartite(50, 50, extra_edges=25, seed=1)
        labels = {id(v) for v in list(g.left) + list(g.right)}
        for v in list(g.left) + list(g.right):
            assert all(id(w) in labels for w in g.neighbors(v))

    def test_random_tsp12_degree_bound(self):
        g = random_tsp12_graph(20, max_degree=3, seed=1)
        assert g.max_degree() <= 3

    def test_random_tsp12_invalid_degree(self):
        with pytest.raises(GraphError):
            random_tsp12_graph(5, max_degree=0)


class TestIncidenceGraph:
    def test_incidence_structure(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        inc = incidence_graph(g)
        # Each source edge contributes 2 incidences.
        assert inc.num_edges == 4
        assert len(inc.right) == 2
        # Edge-vertices have degree exactly 2.
        for e in inc.right:
            assert inc.degree(e) == 2

    def test_incidence_vertex_degree_preserved(self):
        g = Graph(edges=[("a", "b"), ("a", "c"), ("a", "d")])
        inc = incidence_graph(g)
        assert inc.degree("a") == 3


class TestExhaustiveEnumeration:
    def test_counts(self):
        graphs = list(all_small_bipartite_graphs(2, 2, min_edges=0))
        assert len(graphs) == 16
        graphs = list(all_small_bipartite_graphs(2, 2, min_edges=1))
        assert len(graphs) == 15

    def test_each_has_declared_sides(self):
        for g in all_small_bipartite_graphs(2, 2, min_edges=3):
            assert len(g.left) == 2 and len(g.right) == 2
            assert g.num_edges >= 3
