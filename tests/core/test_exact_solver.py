"""Tests for the exact PEBBLE solver (ground truth for everything else)."""

import pytest

from repro.errors import InstanceTooLargeError
from repro.graphs.components import disjoint_union
from repro.graphs.generators import (
    all_small_bipartite_graphs,
    complete_bipartite,
    cycle_graph,
    matching_graph,
    path_graph,
    random_bipartite_gnm,
    random_connected_bipartite,
    star_graph,
    union_of_bicliques,
)
from repro.graphs.line_graph import line_graph
from repro.core.families import worst_case_effective_cost, worst_case_family
from repro.core.solvers.exact import (
    exact_search_effort,
    minimum_path_partition,
    optimal_effective_cost_bruteforce,
    solve_exact,
)


class TestKnownOptima:
    def test_path(self):
        g = path_graph(5)
        assert solve_exact(g).effective_cost == 5

    def test_cycle(self):
        g = cycle_graph(6)
        assert solve_exact(g).effective_cost == 6

    def test_star(self):
        assert solve_exact(star_graph(5)).effective_cost == 5

    def test_complete_bipartite(self):
        assert solve_exact(complete_bipartite(3, 3)).effective_cost == 9

    def test_matching(self):
        result = solve_exact(matching_graph(4))
        assert result.effective_cost == 4
        assert result.scheme.cost() == 8  # pi_hat = 2m (Lemma 2.4)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_worst_case_family_formula(self, n):
        family = worst_case_family(n)
        assert solve_exact(family).effective_cost == worst_case_effective_cost(n)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        g = random_bipartite_gnm(3, 3, 6, seed=seed).without_isolated_vertices()
        if g.num_edges == 0:
            return
        assert (
            solve_exact(g).effective_cost
            == optimal_effective_cost_bruteforce(g)
        )

    def test_exhaustive_2x3(self):
        # Every bipartite graph on a 2x3 grid with 3..6 edges.
        for g in all_small_bipartite_graphs(2, 3, min_edges=3):
            working = g.without_isolated_vertices()
            assert (
                solve_exact(working).effective_cost
                == optimal_effective_cost_bruteforce(working)
            )

    def test_bruteforce_size_cap(self):
        with pytest.raises(InstanceTooLargeError):
            optimal_effective_cost_bruteforce(complete_bipartite(3, 3))


class TestSchemeValidity:
    @pytest.mark.parametrize("seed", range(6))
    def test_returned_scheme_valid_and_costed(self, seed):
        g = random_bipartite_gnm(4, 4, 9, seed=seed).without_isolated_vertices()
        result = solve_exact(g)
        result.scheme.validate(g)
        assert result.scheme.effective_cost(g) == result.effective_cost
        assert result.jumps == result.scheme.jumps()

    def test_additivity_over_components(self):
        g1 = cycle_graph(4)
        g2 = worst_case_family(3)
        union = disjoint_union(g1, g2)
        assert (
            solve_exact(union).effective_cost
            == solve_exact(g1).effective_cost + solve_exact(g2).effective_cost
        )

    def test_biclique_fast_path_used(self):
        # Large biclique would be hopeless for search; the closed form
        # answers instantly with zero search nodes.
        g = complete_bipartite(10, 10)
        result = solve_exact(g)
        assert result.effective_cost == 100
        assert result.search_nodes == 0

    def test_isolated_vertices_ignored(self):
        g = path_graph(3)
        g.add_left_vertex("iso")
        result = solve_exact(g)
        assert result.effective_cost == 3


class TestPathPartition:
    def test_partition_covers_all_nodes(self):
        line = line_graph(worst_case_family(4))
        partition = minimum_path_partition(line)
        covered = [node for path in partition for node in path]
        assert sorted(map(repr, covered)) == sorted(map(repr, line.vertices))

    def test_partition_paths_are_paths(self):
        line = line_graph(worst_case_family(4))
        for path in minimum_path_partition(line):
            for a, b in zip(path, path[1:]):
                assert line.has_edge(a, b)

    def test_partition_minimality_on_corona(self):
        from repro.core.families import jump_count_of_family

        for n in (3, 4, 5):
            line = line_graph(worst_case_family(n))
            partition = minimum_path_partition(line)
            assert len(partition) == jump_count_of_family(n) + 1

    def test_empty_graph(self):
        from repro.graphs.simple import Graph

        assert minimum_path_partition(Graph()) == []

    def test_node_budget_enforced(self):
        g = worst_case_family(8)
        with pytest.raises(InstanceTooLargeError):
            solve_exact(g, node_budget=10)

    def test_deficiency_certificate_on_tight_families(self):
        # The corona family's deficiency bound is tight: the result should
        # carry the succinct optimality certificate.
        assert solve_exact(worst_case_family(5)).deficiency_tight
        assert solve_exact(complete_bipartite(3, 3)).deficiency_tight

    def test_deficiency_certificate_absent_when_bound_gaps(self):
        # Tree-plus-chords instances where the bound says "perfect might
        # exist" but the optimum has a jump: no succinct certificate.
        from repro.graphs.generators import random_connected_bipartite

        g = random_connected_bipartite(10, 10, extra_edges=2, seed=1)
        result = solve_exact(g)
        assert result.effective_cost == g.num_edges + 1
        assert not result.deficiency_tight

    def test_ordering_heuristic_never_changes_the_answer(self):
        # Both arms of the ablation must terminate (same optimum either
        # way; only the effort differs).
        g = worst_case_family(5)
        ordered = exact_search_effort(g, use_ordering=True)
        raw = exact_search_effort(g, use_ordering=False, node_budget=2_000_000)
        assert ordered > 0 and raw > 0
        assert ordered <= raw


class TestSearchEffortCounts:
    """The exact search's node counts, pinned.  They are deterministic, so
    any change to the search order or to its compile moves them.  They
    are the counts ``bench_ablations`` (ordering ablation) and E-T4.2
    (tree-plus-two-chords instances) report."""

    @pytest.mark.parametrize(
        "n, ordered, raw", [(6, 18, 142), (8, 24, 448), (10, 30, 1_110)]
    )
    def test_ordering_ablation_counts(self, n, ordered, raw):
        g = worst_case_family(n)
        assert exact_search_effort(g, use_ordering=True) == ordered
        assert exact_search_effort(g, use_ordering=False) == raw

    @pytest.mark.parametrize("n, nodes", [(6, 15), (7, 19), (8, 19), (9, 63)])
    def test_hardness_instance_counts(self, n, nodes):
        g = random_connected_bipartite(n, n, extra_edges=2, seed=1)
        assert solve_exact(g).search_nodes == nodes
