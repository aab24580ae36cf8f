"""Tests for components, Betti numbers, and disjoint unions."""

import pytest

from repro.errors import GraphError
from repro.graphs.bipartite import from_edges
from repro.graphs.components import (
    Decomposition,
    betti_number,
    component_vertex_sets,
    decompose,
    disjoint_union,
    disjoint_union_many,
    is_connected,
)
from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    path_graph,
    union_of_bicliques,
)
from repro.graphs.simple import Graph


class TestComponents:
    def test_single_component(self, path4):
        assert len(component_vertex_sets(path4)) == 1
        assert is_connected(path4)

    def test_matching_has_m_components(self):
        assert len(component_vertex_sets(matching_graph(5))) == 5

    def test_components_partition_vertices(self, k23):
        sets = component_vertex_sets(k23)
        assert set().union(*sets) == set(k23.left) | set(k23.right)

    def test_decompose_components_are_subgraphs(self):
        g = union_of_bicliques([(2, 2), (1, 3)])
        comps = decompose(g).components
        assert sorted(c.num_edges for c in comps) == [3, 4]
        assert all(c.is_complete_bipartite() for c in comps)

    def test_works_on_plain_graph(self):
        g = Graph(edges=[("a", "b"), ("c", "d")])
        assert len(component_vertex_sets(g)) == 2
        assert not is_connected(g)

    def test_empty_graph_connected(self):
        assert is_connected(Graph())


class TestDecompose:
    def test_drops_isolated_vertices(self):
        g = from_edges([("a", "x"), ("b", "y")])
        g.add_left_vertex("iso")
        g.add_right_vertex("iso2")
        parts = decompose(g)
        assert parts.graph is g
        assert parts.betti == betti_number(g) == 2
        assert [c.left for c in parts.components] == [["a"], ["b"]]

    def test_components_keep_parent_order_and_first_vertex_order(self):
        g = from_edges([("r3", "s1"), ("r1", "s2"), ("r2", "s1"), ("r0", "s2")])
        parts = decompose(g)
        assert [c.left for c in parts.components] == [["r3", "r2"], ["r1", "r0"]]
        assert [c.right for c in parts.components] == [["s1"], ["s2"]]

    def test_plain_graph_keeps_parent_order(self):
        g = Graph(vertices=["z", "c", "y", "a"], edges=[("z", "y"), ("c", "a")])
        parts = decompose(g)
        assert [c.vertices for c in parts.components] == [["z", "y"], ["c", "a"]]

    def test_connected_graph_is_its_own_component(self):
        g = path_graph(3)
        assert decompose(g).components == (g,)
        assert decompose(g).components[0] is g
        g.add_left_vertex("iso")
        (component,) = decompose(g).components
        assert component is not g
        assert component.edges() == g.edges()
        assert "iso" not in component.left

    def test_decomposition_passes_through(self):
        parts = decompose(path_graph(3))
        assert decompose(parts) is parts

    def test_each_is_one_split_component(self):
        parts = decompose(union_of_bicliques([(2, 2), (1, 3)]))
        each = parts.each()
        assert [p.graph for p in each] == list(parts.components)
        assert all(isinstance(p, Decomposition) and p.betti == 1 for p in each)

    def test_edgeless_graph_has_no_components(self):
        assert decompose(Graph(vertices=[1, 2])).betti == 0


class TestBettiNumber:
    def test_connected_graph(self, k23):
        assert betti_number(k23) == 1

    def test_matching(self):
        assert betti_number(matching_graph(4)) == 4

    def test_ignores_isolated_by_default(self):
        g = from_edges([("u", "v")])
        g.add_left_vertex("iso")
        assert betti_number(g) == 1
        assert betti_number(g, ignore_isolated=False) == 2


class TestDisjointUnion:
    def test_tags_vertices(self):
        u = disjoint_union(path_graph(2), path_graph(3))
        assert u.num_edges == 5
        assert betti_number(u) == 2

    def test_same_graph_twice(self):
        g = complete_bipartite(2, 2)
        u = disjoint_union(g, g)
        assert u.num_edges == 8
        assert betti_number(u) == 2

    def test_many(self):
        u = disjoint_union_many([path_graph(1)] * 3)
        assert u.num_edges == 3
        assert betti_number(u) == 3

    def test_many_empty_raises(self):
        with pytest.raises(GraphError):
            disjoint_union_many([])
