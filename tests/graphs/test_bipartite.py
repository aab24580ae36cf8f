"""Tests for BipartiteGraph (the join graph representation)."""

import pytest

from repro.errors import EdgeError, GraphError, VertexError
from repro.graphs.bipartite import BipartiteGraph, from_edges
from repro.graphs.generators import complete_bipartite, matching_graph


class TestConstruction:
    def test_empty(self):
        g = BipartiteGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_sides_disjoint(self):
        g = BipartiteGraph(left=["x"])
        with pytest.raises(GraphError):
            g.add_right_vertex("x")

    def test_add_edge_normalizes_orientation(self):
        g = BipartiteGraph(left=["u"], right=["v"])
        g.add_edge("v", "u")  # supplied backwards
        assert g.edges() == [("u", "v")]

    def test_add_edge_same_side_rejected(self):
        g = BipartiteGraph(left=["u1", "u2"])
        with pytest.raises(GraphError):
            g.add_edge("u1", "u2")

    def test_add_edge_creates_vertices(self):
        g = BipartiteGraph()
        g.add_edge("u", "v")
        assert g.side_of("u") == "left"
        assert g.side_of("v") == "right"

    def test_add_edges_matches_add_edge(self):
        pairs = [("u1", "v2"), ("u2", "v1"), ("u1", "v1"), ("u1", "v2")]
        bulk = BipartiteGraph(left=["u1", "u2"], right=["v1", "v2"])
        bulk.add_edges(iter(pairs))
        single = BipartiteGraph(left=["u1", "u2"], right=["v1", "v2"])
        for u, v in pairs:
            single.add_edge(u, v)
        assert bulk == single
        assert bulk.num_edges == 3  # the repeated pair is one edge
        assert [list(bulk.neighbors(v)) for v in bulk] == [
            list(single.neighbors(v)) for v in single
        ]

    @pytest.mark.parametrize(
        "pair", [("v1", "u1"), ("u1", "u2"), ("u1", "w"), ("w", "v1")]
    )
    def test_add_edges_rejects_a_vertex_off_its_side(self, pair):
        g = BipartiteGraph(left=["u1", "u2"], right=["v1"])
        with pytest.raises(GraphError):
            g.add_edges([("u1", "v1"), pair])
        assert g.num_edges == 0  # nothing added
        assert g.num_vertices == 3  # nothing created

    def test_add_edges_rejects_a_pair_of_the_wrong_length(self):
        g = BipartiteGraph(left=["u1"], right=["v1"])
        with pytest.raises(GraphError):
            g.add_edges([("u1", "v1"), ("u1", "v1", "v1")])

    def test_from_edges(self):
        g = from_edges([("u1", "v1"), ("u2", "v1")])
        assert g.num_edges == 2
        assert set(g.left) == {"u1", "u2"}

    def test_from_edges_side_conflict(self):
        with pytest.raises(GraphError):
            from_edges([("a", "b"), ("b", "a")])


class TestQueries:
    def test_neighbors_both_sides(self):
        g = from_edges([("u", "v"), ("u", "w")])
        assert g.neighbors("u") == {"v", "w"}
        assert g.neighbors("v") == {"u"}

    def test_degree(self):
        g = complete_bipartite(2, 3)
        assert g.degree("u0") == 3
        assert g.degree("v0") == 2

    def test_degree_is_neighbor_count(self):
        g = from_edges([("a", "x"), ("a", "y"), ("b", "y")])
        g.add_left_vertex("iso")
        assert all(g.degree(v) == len(g.neighbors(v)) for v in g)
        with pytest.raises(VertexError):
            g.degree("ghost")

    def test_neighbors_is_a_copy(self):
        g = from_edges([("a", "x")])
        g.neighbors("a").add("intruder")
        assert g.neighbors("a") == {"x"}

    def test_side_of_missing_raises(self):
        with pytest.raises(VertexError):
            BipartiteGraph().side_of("ghost")

    def test_has_edge_both_orientations(self):
        g = from_edges([("u", "v")])
        assert g.has_edge("u", "v")
        assert g.has_edge("v", "u")
        assert not g.has_edge("u", "ghost")

    def test_orient_edge(self):
        g = from_edges([("u", "v")])
        assert g.orient_edge("v", "u") == ("u", "v")
        with pytest.raises(EdgeError):
            g.orient_edge("u", "ghost")

    def test_isolated_vertices(self):
        g = BipartiteGraph(left=["u", "lonely"], right=["v"])
        g.add_edge("u", "v")
        assert g.isolated_vertices() == ["lonely"]

    def test_num_edges_counts_result_tuples(self):
        assert complete_bipartite(3, 4).num_edges == 12


class TestStructureTests:
    def test_complete_bipartite_true(self):
        assert complete_bipartite(2, 3).is_complete_bipartite()

    def test_complete_bipartite_false(self):
        g = complete_bipartite(2, 2)
        g.remove_edge("u0", "v1")
        assert not g.is_complete_bipartite()

    def test_is_matching(self):
        assert matching_graph(4).is_matching()
        assert not complete_bipartite(2, 2).is_matching()


class TestDerived:
    def test_subgraph_preserves_sides(self):
        g = complete_bipartite(2, 2)
        sub = g.subgraph(["u0", "v0", "v1"])
        assert set(sub.left) == {"u0"}
        assert set(sub.right) == {"v0", "v1"}
        assert sub.num_edges == 2

    @pytest.mark.parametrize(
        "keep",
        [["v2", "u1", "v0", "u0"], ["u0", "u1", "v0", "v2"], {"v0", "u1", "v2", "u0"}],
    )
    def test_subgraph_keeps_parent_order(self, keep):
        g = BipartiteGraph(left=["u1", "u9", "u0"], right=["v2", "v1", "v0"])
        g.add_edge("u0", "v0")
        g.add_edge("u1", "v2")
        sub = g.subgraph(keep)
        assert sub.left == ["u1", "u0"]
        assert sub.right == ["v2", "v0"]
        assert sub.edges() == [("u0", "v0"), ("u1", "v2")]

    def test_subgraph_sees_vertices_added_after_an_earlier_split(self):
        g = from_edges([("b", "y")])
        g.subgraph(["b"])
        g.add_edge("a", "x")
        assert g.subgraph(["x", "a", "y", "b"]).left == ["b", "a"]

    def test_subgraph_unknown_vertex_raises(self):
        with pytest.raises(VertexError):
            complete_bipartite(1, 1).subgraph(["u0", "ghost"])

    def test_without_isolated(self):
        g = BipartiteGraph(left=["u", "iso"], right=["v"])
        g.add_edge("u", "v")
        out = g.without_isolated_vertices()
        assert not out.has_vertex("iso")

    def test_to_graph_forgets_sides(self):
        g = from_edges([("u", "v")])
        plain = g.to_graph()
        assert plain.has_edge("u", "v")
        assert plain.num_vertices == 2

    def test_copy_independent(self):
        g = from_edges([("u", "v")])
        clone = g.copy()
        clone.add_edge("u", "w")
        assert g.num_edges == 1

    def test_relabeled(self):
        g = from_edges([("u", "v")])
        out = g.relabeled({"u": "a", "v": "b"})
        assert out.has_edge("a", "b")
        assert out.side_of("a") == "left"

    def test_relabeled_validates(self):
        g = from_edges([("u", "v")])
        with pytest.raises(GraphError):
            g.relabeled({"u": "a"})

    def test_remove_edge(self):
        g = from_edges([("u", "v")])
        g.remove_edge("v", "u")
        assert g.num_edges == 0
        with pytest.raises(EdgeError):
            g.remove_edge("u", "v")

    def test_equality(self):
        assert from_edges([("u", "v")]) == from_edges([("u", "v")])
        assert from_edges([("u", "v")]) != from_edges([("u", "w")])

    def test_iter_and_contains(self):
        g = from_edges([("u", "v")])
        assert "u" in g and "v" in g
        assert set(g) == {"u", "v"}
