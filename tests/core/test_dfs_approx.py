"""Tests for the Theorem 3.1 DFS 1.25-approximation."""

import pytest

from repro.graphs.generators import (
    complete_bipartite,
    cycle_graph,
    grid_graph,
    path_graph,
    random_bipartite_gnm,
    random_connected_bipartite,
    union_of_bicliques,
)
from repro.core.costs import effective_cost_bounds
from repro.core.families import worst_case_family
from repro.core.solvers.exact import solve_exact
from repro.core.solvers.registry import solve
from repro.core.tsp import tour_jumps
from tests.core.split_reference import dfs_tour


def guarantee(g) -> int:
    """Theorem 3.1's certificate, Σ_c (m_c + ⌊m_c/4⌋)."""
    return effective_cost_bounds(g)[1]


class TestGuarantee:
    @pytest.mark.parametrize("seed", range(20))
    def test_within_guarantee_random_connected(self, seed):
        g = random_connected_bipartite(6, 6, extra_edges=seed % 7, seed=seed)
        result = solve(g, "dfs")
        result.scheme.validate(g)
        assert result.effective_cost <= guarantee(g)
        assert guarantee(g) <= int(1.25 * g.num_edges)

    @pytest.mark.parametrize("seed", range(10))
    def test_within_guarantee_random_disconnected(self, seed):
        g = random_bipartite_gnm(6, 6, 10, seed=seed).without_isolated_vertices()
        if g.num_edges == 0:
            return
        result = solve(g, "dfs")
        result.scheme.validate(g)
        assert result.effective_cost <= guarantee(g)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_worst_case_family(self, n):
        g = worst_case_family(n)
        result = solve(g, "dfs")
        result.scheme.validate(g)
        assert result.effective_cost <= g.num_edges + g.num_edges // 4

    def test_structured_instances(self):
        for g in (
            path_graph(9),
            cycle_graph(10),
            complete_bipartite(4, 5),
            grid_graph(3, 4),
            union_of_bicliques([(2, 2), (3, 3)]),
        ):
            result = solve(g, "dfs")
            result.scheme.validate(g)
            assert result.effective_cost <= guarantee(g)


class TestQuality:
    @pytest.mark.parametrize("seed", range(8))
    def test_ratio_vs_optimum_within_125(self, seed):
        g = random_connected_bipartite(4, 4, extra_edges=2, seed=seed)
        approx = solve(g, "dfs").effective_cost
        exact = solve_exact(g).effective_cost
        assert approx <= 1.25 * exact + 1e-9

    def test_perfect_on_paths(self):
        # L(path) is a path; the DFS tree is a chain, one chunk, no jumps.
        g = path_graph(8)
        assert solve(g, "dfs").effective_cost == 8


class TestMechanics:
    def test_empty_graph(self):
        from repro.graphs.bipartite import BipartiteGraph

        result = solve(BipartiteGraph(), "dfs")
        assert result.effective_cost == 0
        assert guarantee(BipartiteGraph()) == 0

    def test_single_edge(self):
        g = path_graph(1)
        result = solve(g, "dfs")
        assert result.effective_cost == 1

    def test_chunks_reported(self):
        g = worst_case_family(6)
        tour, chunks = dfs_tour(g)
        assert chunks >= 1
        # Jumps can only be fewer than chunk junctions (greedy reordering).
        assert tour_jumps(tour) <= chunks - 1
        assert solve(g, "dfs").jumps == tour_jumps(tour)
