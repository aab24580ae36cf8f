"""Tests for the deficiency lower bounds (generalizing Theorem 3.3)."""

import pytest

from repro.graphs.components import component_vertex_sets, disjoint_union_many
from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    path_graph,
    random_bipartite_gnm,
    random_connected_bipartite,
    random_tsp12_graph,
    star_graph,
)
from repro.graphs.line_graph import line_graph
from repro.core.families import (
    jump_count_of_family,
    worst_case_family,
)
from repro.core.lower_bounds import (
    component_deficiency_report,
    effective_cost_lower_bound,
    jump_lower_bound,
    path_partition_lower_bound,
)
from repro.core.solvers.exact import solve_exact
from tests.core import split_reference


class TestPathPartitionBound:
    def test_path_line_graph_needs_one_path(self):
        assert path_partition_lower_bound(line_graph(path_graph(5))) == 1

    def test_matching_line_graph_needs_m_paths(self):
        line = line_graph(matching_graph(4))
        assert path_partition_lower_bound(line) == 4

    def test_empty(self):
        from repro.graphs.simple import Graph

        assert path_partition_lower_bound(Graph()) == 0

    def test_corona_bound_matches_theorem_3_3(self):
        # Thm 3.3's counting: for G_n, J >= ceil(n/2) - 1.
        for n in range(2, 9):
            line = line_graph(worst_case_family(n))
            expected_paths = jump_count_of_family(n) + 1
            assert path_partition_lower_bound(line) == expected_paths


class TestJumpBound:
    def test_perfect_graphs_have_zero_bound(self, k23):
        assert jump_lower_bound(k23) == 0

    def test_family_bound_tight(self):
        for n in range(1, 8):
            family = worst_case_family(n)
            assert jump_lower_bound(family) == jump_count_of_family(n)

    def test_bound_is_sound(self):
        # The bound never exceeds the true optimum (checked exactly).
        for seed in range(6):
            g = random_connected_bipartite(4, 4, extra_edges=2, seed=seed)
            lb = effective_cost_lower_bound(g)
            assert lb <= solve_exact(g).effective_cost

    def test_bound_at_least_m(self, tiny_zoo):
        for g in tiny_zoo:
            assert effective_cost_lower_bound(g) >= g.num_edges


class TestReports:
    def test_report_shape(self):
        report = component_deficiency_report(worst_case_family(4))
        assert len(report) == 1
        entry = report[0]
        assert entry["edges"] == 8
        assert entry["line_nodes"] == 8
        assert entry["line_degree_one_nodes"] == 4
        assert entry["effective_cost_lb"] == entry["edges"] + entry["jump_lb"]

    def test_report_skips_empty_components(self):
        from repro.graphs.bipartite import BipartiteGraph

        g = BipartiteGraph(left=["iso"])
        assert component_deficiency_report(g) == []


def _degree_form_graphs():
    """Seeded bipartite graphs (some with isolated vertices), plain graphs,
    G_n and disjoint unions of all three kinds."""
    for seed in range(25):
        yield random_connected_bipartite(2 + seed % 6, 2 + seed % 5, seed % 9, seed=seed)
        yield random_bipartite_gnm(6, 6, seed % 13, seed=seed)
        yield random_tsp12_graph(3 + seed % 10, 1 + seed % 4, seed=seed)
        yield disjoint_union_many(
            [
                random_connected_bipartite(3, 2 + seed % 4, seed % 5, seed=seed + i)
                for i in range(1 + seed % 3)
            ]
            + [worst_case_family(1 + seed % 6), matching_graph(1 + seed % 3)]
        )
    for n in range(1, 13):
        yield worst_case_family(n)
    yield star_graph(5)
    yield complete_bipartite(3, 4)


DEGREE_FORM_GRAPHS = list(_degree_form_graphs())


@pytest.mark.parametrize("graph", DEGREE_FORM_GRAPHS, ids=range(len(DEGREE_FORM_GRAPHS)))
class TestDegreeForm:
    """The bounds take deg_L(uv) = deg(u) + deg(v) − 2 from G; the split
    reference builds L(G) for each component."""

    def test_equals_line_graph_bound(self, graph):
        assert effective_cost_lower_bound(graph) == (
            split_reference.effective_cost_lower_bound(graph)
        )

    def test_report_matches_line_graph(self, graph):
        lines = [
            line_graph(graph.subgraph(vertex_set))
            for vertex_set in component_vertex_sets(graph)
            if graph.subgraph(vertex_set).num_edges
        ]
        report = component_deficiency_report(graph)
        assert len(report) == len(lines)
        for entry, line in zip(report, lines):
            assert entry["line_nodes"] == line.num_vertices
            assert entry["line_degree_one_nodes"] == sum(
                1 for v in line.vertices if line.degree(v) == 1
            )
            assert entry["path_partition_lb"] == path_partition_lower_bound(line)
