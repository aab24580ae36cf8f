"""Tests for the general undirected Graph."""

import pytest

from repro.errors import EdgeError, GraphError, VertexError
from repro.graphs.simple import Graph, normalize_edge


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.edges() == []

    def test_vertices_and_edges_from_init(self):
        g = Graph(vertices=["a"], edges=[("b", "c")])
        assert set(g.vertices) == {"a", "b", "c"}
        assert g.num_edges == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge("x", "y")
        assert g.has_vertex("x") and g.has_vertex("y")

    def test_add_edge_idempotent(self):
        g = Graph()
        g.add_edge("x", "y")
        g.add_edge("y", "x")
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(EdgeError):
            g.add_edge("x", "x")

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("v")
        g.add_vertex("v")
        assert g.num_vertices == 1


class TestRemoval:
    def test_remove_edge(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        assert g.has_edge("b", "c")

    def test_remove_missing_edge_raises(self):
        g = Graph(edges=[("a", "b")])
        with pytest.raises(EdgeError):
            g.remove_edge("a", "c")

    def test_remove_vertex_removes_incident_edges(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        g.remove_vertex("b")
        assert g.num_edges == 1
        assert g.has_edge("c", "a")

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(VertexError):
            Graph().remove_vertex("ghost")


class TestQueries:
    def test_degree_and_neighbors(self):
        g = Graph(edges=[("a", "b"), ("a", "c")])
        assert g.degree("a") == 2
        assert g.neighbors("a") == {"b", "c"}
        assert g.degree("b") == 1

    def test_neighbors_returns_copy(self):
        g = Graph(edges=[("a", "b")])
        g.neighbors("a").add("zzz")
        assert g.neighbors("a") == {"b"}

    def test_degree_of_missing_vertex_raises(self):
        with pytest.raises(VertexError):
            Graph().degree("ghost")

    def test_max_degree(self):
        g = Graph(edges=[("a", "b"), ("a", "c"), ("a", "d")])
        assert g.max_degree() == 3
        assert Graph().max_degree() == 0

    def test_isolated_vertices(self):
        g = Graph(vertices=["lonely"], edges=[("a", "b")])
        assert g.isolated_vertices() == ["lonely"]

    def test_edges_canonical_and_sorted(self):
        g = Graph(edges=[("b", "a"), ("c", "a")])
        assert g.edges() == [("a", "b"), ("a", "c")]

    def test_contains_iter_len(self):
        g = Graph(edges=[("a", "b")])
        assert "a" in g
        assert sorted(g) == ["a", "b"]
        assert len(g) == 2


class TestDerived:
    def test_copy_is_independent(self):
        g = Graph(edges=[("a", "b")])
        clone = g.copy()
        clone.add_edge("b", "c")
        assert g.num_edges == 1
        assert clone.num_edges == 2

    def test_subgraph_induced(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        sub = g.subgraph(["a", "b"])
        assert sub.num_edges == 1
        assert sub.has_edge("a", "b")

    def test_subgraph_unknown_vertex_raises(self):
        with pytest.raises(VertexError):
            Graph(edges=[("a", "b")]).subgraph(["a", "ghost"])

    @pytest.mark.parametrize("keep", [["c", "z", "a"], ["a", "c", "z"], {"z", "a", "c"}])
    def test_subgraph_keeps_parent_order(self, keep):
        g = Graph(vertices=["z", "b", "c", "a"], edges=[("z", "a"), ("c", "a")])
        assert g.subgraph(keep).vertices == ["z", "c", "a"]

    def test_subgraph_after_remove_vertex_keeps_order(self):
        g = Graph(vertices=["a", "b", "c"])
        g.subgraph(["a"])
        g.remove_vertex("a")
        g.add_vertex("a")
        assert g.subgraph(["a", "b", "c"]).vertices == ["b", "c", "a"]

    def test_without_isolated_vertices(self):
        g = Graph(vertices=["x"], edges=[("a", "b")])
        assert set(g.without_isolated_vertices().vertices) == {"a", "b"}

    def test_relabeled(self):
        g = Graph(edges=[("a", "b")])
        relabeled = g.relabeled({"a": 1, "b": 2})
        assert relabeled.has_edge(1, 2)

    def test_relabeled_requires_full_injective_mapping(self):
        g = Graph(edges=[("a", "b")])
        with pytest.raises(GraphError):
            g.relabeled({"a": 1})
        with pytest.raises(GraphError):
            g.relabeled({"a": 1, "b": 1})

    def test_complement_weight(self):
        g = Graph(edges=[("a", "b")], vertices=["c"])
        assert g.complement_weight("a", "b") == 1
        assert g.complement_weight("a", "c") == 2

    def test_complement_weight_same_vertex_raises(self):
        g = Graph(vertices=["a"])
        with pytest.raises(EdgeError):
            g.complement_weight("a", "a")

    def test_equality_by_structure(self):
        g1 = Graph(edges=[("a", "b")])
        g2 = Graph(edges=[("b", "a")])
        assert g1 == g2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph())


class TestNormalizeEdge:
    def test_orderable_labels(self):
        assert normalize_edge(2, 1) == (1, 2)

    def test_unorderable_labels_fall_back_to_repr(self):
        edge1 = normalize_edge("a", 1)
        edge2 = normalize_edge(1, "a")
        assert edge1 == edge2

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeError):
            normalize_edge("a", "a")
