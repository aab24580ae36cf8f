"""Tests for greedy and local-search solvers."""

import pytest

from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    path_graph,
    random_bipartite_gnm,
    random_connected_bipartite,
)
from repro.core.costs import naive_cost_bounds
from repro.core.families import worst_case_family
from repro.core.solvers.exact import solve_exact
from repro.core.solvers.greedy import solve_greedy
from repro.core.solvers.local_search import polish_scheme
from repro.core.solvers.registry import solve
from repro.core.tsp import tour_cost
from repro.graphs.components import decompose
from tests.core.split_reference import polished_tour


class TestGreedy:
    @pytest.mark.parametrize("seed", range(10))
    def test_valid_and_within_naive_bounds(self, seed):
        g = random_bipartite_gnm(5, 5, 11, seed=seed).without_isolated_vertices()
        if g.num_edges == 0:
            return
        result = solve(g, "greedy")
        result.scheme.validate(g)
        lower, upper = naive_cost_bounds(g)
        assert lower <= result.effective_cost <= upper

    def test_greedy_perfect_on_biclique(self):
        g = complete_bipartite(3, 3)
        assert solve(g, "greedy").effective_cost == 9

    def test_greedy_perfect_on_path(self):
        assert solve(path_graph(7), "greedy").effective_cost == 7

    def test_greedy_on_matching(self):
        g = matching_graph(4)
        assert solve(g, "greedy").effective_cost == 4


class TestLocalSearch:
    def test_improve_tour_never_worse(self):
        g = worst_case_family(5)
        edges = g.edges()
        improved = polished_tour(edges)
        assert tour_cost(improved) <= tour_cost(edges)

    def test_improve_tour_preserves_multiset(self):
        g = worst_case_family(4)
        improved = polished_tour(g.edges())
        assert sorted(map(repr, improved)) == sorted(map(repr, g.edges()))

    def test_polish_never_worse(self):
        for seed in range(6):
            g = random_connected_bipartite(5, 5, extra_edges=3, seed=seed)
            base = solve(g, "greedy")
            polished = solve(g, "greedy+polish")
            polished.scheme.validate(g)
            assert polished.effective_cost <= base.effective_cost
            improvement = polish_scheme(decompose(g).tables, solve_greedy(g)).improvement
            assert improvement == base.jumps - polished.jumps >= 0

    def test_polish_reaches_optimum_on_easy_graph(self):
        g = complete_bipartite(2, 4)
        polished = solve(g, "greedy+polish")
        assert polished.effective_cost == solve_exact(g).effective_cost

    def test_two_opt_fixes_bad_order(self):
        # Deliberately bad order of a path's edges; 2-opt should recover a
        # much better tour.
        g = path_graph(6)
        edges = g.edges()
        shuffled = edges[::2] + edges[1::2]
        improved = polished_tour(shuffled)
        assert tour_cost(improved) <= tour_cost(shuffled)
