"""Pebbling on general (non-bipartite) graphs.

The paper's §2 footnote: "This definition applies for general graphs as
well."  The cost model, bounds, and solvers in this library are written
against the footnote's generality — these tests exercise them on
triangles, odd cycles, cliques, and wheels, where no bipartition exists.
"""

import itertools

import pytest

from repro.graphs.hamiltonian import has_hamiltonian_path
from repro.graphs.line_graph import is_claw_free, line_graph
from repro.graphs.simple import Graph
from repro.core.lower_bounds import effective_cost_lower_bound
from repro.core.solvers.exact import (
    optimal_effective_cost_bruteforce,
    solve_exact,
)
from repro.core.solvers.registry import solve


def _triangle() -> Graph:
    return Graph(edges=[(0, 1), (1, 2), (2, 0)])


def _odd_cycle(n: int) -> Graph:
    return Graph(edges=[(i, (i + 1) % n) for i in range(n)])


def _clique(n: int) -> Graph:
    return Graph(edges=itertools.combinations(range(n), 2))


def _wheel(n: int) -> Graph:
    g = _odd_cycle(n)
    for i in range(n):
        g.add_edge("hub", i)
    return g


class TestExactOnGeneralGraphs:
    def test_triangle_is_perfect(self):
        # L(C3) = C3, traceable: pi = m = 3.
        assert solve_exact(_triangle()).effective_cost == 3

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_cycles_perfect(self, n):
        assert solve_exact(_odd_cycle(n)).effective_cost == n

    def test_k4_perfect(self):
        g = _clique(4)
        result = solve_exact(g)
        assert result.effective_cost == g.num_edges

    def test_wheel(self):
        g = _wheel(5)
        result = solve_exact(g)
        result.scheme.validate(g)
        assert g.num_edges <= result.effective_cost <= 1.25 * g.num_edges

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_bruteforce_on_small_cliques(self, n):
        g = _clique(n)
        assert (
            solve_exact(g).effective_cost
            == optimal_effective_cost_bruteforce(g)
        )

    def test_triangle_spider_is_perfect_unlike_the_star_spider(self):
        # A triangle with one pendant per corner looks like the Fig-1
        # spider, but pebbles PERFECTLY: each pendant's line-node touches
        # *two* cycle edges (its corner has degree 3), so L(G) is
        # traceable — whereas the bipartite star spider's pendants have
        # line-degree 1 and force jumps.  The worst case needs a hub whose
        # arms do not interconnect, which bipartiteness provides.
        g = _triangle()
        for i in range(3):
            g.add_edge(i, f"p{i}")
        result = solve_exact(g)
        assert result.effective_cost == g.num_edges
        assert result.jumps == 0
        assert result.effective_cost == effective_cost_lower_bound(g)


class TestStructureOnGeneralGraphs:
    @pytest.mark.parametrize("maker", [_triangle, lambda: _odd_cycle(5), lambda: _clique(4), lambda: _wheel(4)])
    def test_line_graphs_still_claw_free(self, maker):
        assert is_claw_free(line_graph(maker()))

    @pytest.mark.parametrize("maker", [_triangle, lambda: _odd_cycle(7), lambda: _clique(4)])
    def test_prop_2_1_holds(self, maker):
        g = maker()
        pi = solve_exact(g).effective_cost
        assert (pi == g.num_edges) == has_hamiltonian_path(line_graph(g))


class TestApproximationsOnGeneralGraphs:
    @pytest.mark.parametrize("maker", [lambda: _odd_cycle(9), lambda: _clique(5), lambda: _wheel(6)])
    def test_dfs_guarantee_holds(self, maker):
        g = maker()
        result = solve(g, "dfs")
        result.scheme.validate(g)
        assert result.effective_cost <= g.num_edges + g.num_edges // 4

    @pytest.mark.parametrize("maker", [lambda: _odd_cycle(9), lambda: _clique(5)])
    def test_greedy_valid(self, maker):
        g = maker()
        result = solve(g, "greedy")
        result.scheme.validate(g)
        assert result.effective_cost >= g.num_edges
