"""Canonical forms and fingerprints: the solve cache's notion of identity."""

import pytest

from repro.core.families import worst_case_family
from repro.core.scheme import PebblingScheme
from repro.core.solvers.registry import solve
from repro.errors import SchemeError
from repro.graphs.bipartite import BipartiteGraph, from_edges
from repro.graphs.generators import (
    complete_bipartite,
    path_graph,
    random_bipartite_gnm,
    random_connected_bipartite,
    union_of_bicliques,
)
from repro.parallel.fingerprint import (
    canonical_form,
    decode_scheme,
    encode_scheme,
    fingerprint,
)


class TestCanonicalForm:
    def test_deterministic(self):
        g = random_connected_bipartite(4, 4, 9, seed=3)
        assert canonical_form(g) == canonical_form(g)
        assert fingerprint(g) == fingerprint(g)

    def test_left_size_recorded(self):
        form = canonical_form(complete_bipartite(2, 3))
        assert form.kind == "bipartite"
        assert form.left_size == 2
        assert len(form.vertices) == 5
        assert len(form.edges) == 6

    def test_edges_sorted_index_pairs(self):
        form = canonical_form(path_graph(4))
        assert list(form.edges) == sorted(form.edges)
        for u, v in form.edges:
            assert 0 <= u < form.left_size
            assert form.left_size <= v < len(form.vertices)

    @pytest.mark.parametrize(
        "graph",
        [
            complete_bipartite(3, 4),
            union_of_bicliques([(2, 3), (1, 1)]),
            random_bipartite_gnm(5, 6, 14, seed=4),
            BipartiteGraph(left=["a", "b"], right=["x"], edges=[("a", "x")]),
            BipartiteGraph(left=["a"], right=["x", "y"]),
        ],
        ids=["biclique", "two-blocks", "random", "isolated", "edgeless"],
    )
    def test_edges_are_the_sorted_index_pairs_of_edges(self, graph):
        # The definition: every edge as an index pair, sorted (the form
        # reads the adjacency, or a biclique's pairs in order, instead).
        form = canonical_form(graph)
        index = {v: i for i, v in enumerate(form.vertices)}
        assert form.edges == tuple(
            sorted((index[u], index[v]) for u, v in graph.edges())
        )

    def test_relabeling_preserves_fingerprint(self):
        # Same structure, different labels — but same repr-sort order.
        a = from_edges([("a1", "b1"), ("a1", "b2"), ("a2", "b2")])
        b = from_edges([("x1", "y1"), ("x1", "y2"), ("x2", "y2")])
        assert fingerprint(a) == fingerprint(b)

    def test_structure_changes_fingerprint(self):
        a = from_edges([("a1", "b1"), ("a1", "b2"), ("a2", "b2")])
        b = from_edges([("a1", "b1"), ("a1", "b2"), ("a2", "b1")])
        assert fingerprint(a) != fingerprint(b)

    def test_family_sizes_distinct(self):
        prints = {fingerprint(worst_case_family(n)) for n in range(1, 6)}
        assert len(prints) == 5


class TestSchemeCodec:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        g = random_connected_bipartite(3, 3, 7, seed=seed)
        form = canonical_form(g)
        scheme = solve(g).scheme
        encoded = encode_scheme(scheme, form)
        decoded = decode_scheme(encoded, form)
        assert decoded.configurations == scheme.configurations

    def test_cross_graph_rehydration(self):
        """A scheme recorded against one labeling transfers to another
        with the same structure, at identical cost — the property that
        makes fingerprint-keyed caching sound."""
        a = from_edges([("a1", "b1"), ("a1", "b2"), ("a2", "b2")])
        b = from_edges([("x1", "y1"), ("x1", "y2"), ("x2", "y2")])
        encoded = encode_scheme(solve(a).scheme, canonical_form(a))
        transferred = decode_scheme(encoded, canonical_form(b))
        assert transferred.effective_cost(b) == solve(b).effective_cost

    def test_foreign_vertices_rejected(self):
        g = path_graph(2)
        form = canonical_form(g)
        foreign = PebblingScheme([("nope", "also-nope")])
        with pytest.raises(SchemeError):
            encode_scheme(foreign, form)
