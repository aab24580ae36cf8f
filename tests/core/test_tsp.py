"""Tests for the TSP(1,2) view of pebbling (§2.2)."""

import pytest

from repro.errors import SchemeError
from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    path_graph,
)
from repro.core.scheme import PebblingScheme
from repro.core.solvers.equijoin import biclique_tour
from repro.core.tsp import (
    edges_share_endpoint,
    reorder_paths_greedily,
    scheme_to_tour,
    split_tour_into_paths,
    tour_cost,
    tour_from_paths,
    tour_jumps,
    tour_to_scheme,
    validate_tour,
)


def _itself(edge):
    """Path nodes that are edges are their own ends."""
    return edge


class TestCost:
    def test_empty_tour(self):
        assert tour_cost([]) == 0
        assert tour_jumps([]) == 0

    def test_no_jump_tour(self, k23):
        tour = biclique_tour(k23)
        assert tour_jumps(tour) == 0
        assert tour_cost(tour) == len(tour) - 1

    def test_all_jump_tour(self):
        g = matching_graph(3)
        tour = g.edges()
        assert tour_jumps(tour) == 2
        assert tour_cost(tour) == 2 + 2

    def test_share_endpoint(self):
        assert edges_share_endpoint(("a", "b"), ("b", "c"))
        assert not edges_share_endpoint(("a", "b"), ("c", "d"))


class TestValidation:
    def test_valid(self, k23):
        validate_tour(k23, biclique_tour(k23))

    def test_missing_edge(self, k23):
        with pytest.raises(SchemeError):
            validate_tour(k23, biclique_tour(k23)[:-1])

    def test_duplicate_edge(self, k23):
        tour = biclique_tour(k23)
        with pytest.raises(SchemeError):
            validate_tour(k23, tour + [tour[0]])

    def test_foreign_edge(self, k23):
        tour = biclique_tour(k23)[:-1] + [("u0", "ghost")]
        with pytest.raises(SchemeError):
            validate_tour(k23, tour)


class TestConversion:
    def test_round_trip(self, k23):
        tour = biclique_tour(k23)
        scheme = tour_to_scheme(k23, tour)
        assert scheme_to_tour(k23, scheme) == tour

    def test_cost_identity(self, k23):
        # pi_hat = tour cost + 2; for connected G, pi = tour cost + 1.
        tour = biclique_tour(k23)
        scheme = tour_to_scheme(k23, tour)
        assert scheme.cost() == tour_cost(tour) + 2
        assert scheme.effective_cost(k23) == tour_cost(tour) + 1

    def test_scheme_with_transit_rejected(self, path4):
        transit = [("u0", "v1")] + list(path4.edges())
        if not path4.has_edge("u0", "v1"):
            scheme = PebblingScheme(transit)
            with pytest.raises(SchemeError):
                scheme_to_tour(path4, scheme)


class TestPathPartitions:
    def test_split_at_jumps(self):
        g = matching_graph(3)
        paths = split_tour_into_paths(g.edges())
        assert len(paths) == 3
        assert all(len(p) == 1 for p in paths)

    def test_split_no_jumps(self, k23):
        paths = split_tour_into_paths(biclique_tour(k23))
        assert len(paths) == 1

    def test_split_empty(self):
        assert split_tour_into_paths([]) == []

    def test_tour_from_paths_concatenates(self):
        paths = [[("a", "b")], [("c", "d")]]
        assert tour_from_paths(paths) == [("a", "b"), ("c", "d")]

    def test_reorder_exploits_free_junctions(self):
        # Three fragments that chain perfectly when ordered/oriented right.
        p1 = [("a", "b")]
        p2 = [("c", "d")]
        p3 = [("b", "c")]
        ordered = reorder_paths_greedily([p1, p2, p3], _itself)
        tour = tour_from_paths(ordered)
        assert tour_jumps(tour) <= 1  # naive order has 2 jumps

    def test_reorder_never_loses_elements(self):
        paths = [[("a", "b")], [("x", "y")], [("b", "c")]]
        ordered = reorder_paths_greedily(paths, _itself)
        flat = [e for p in ordered for e in p]
        assert sorted(map(repr, flat)) == sorted(
            map(repr, [e for p in paths for e in p])
        )

    def test_reorder_empty(self):
        assert reorder_paths_greedily([], _itself) == []
