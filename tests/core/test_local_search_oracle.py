"""Differential tests: the jump-local, interned local search and the
cached-depth peel return exactly what the quadratic reference returns."""

import itertools
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.families import worst_case_family
from repro.core.reductions import Tsp12Instance, improve_tsp12_tour
from repro.core.scheme import PebblingScheme
from repro.core.solvers import dfs_approx, local_search
from repro.core.solvers.registry import solve
from repro.core.tsp import edges_share_endpoint, tour_jumps
from repro.graphs.components import component_vertex_sets
from repro.graphs.generators import (
    path_graph,
    random_connected_bipartite,
    random_tsp12_graph,
)
from repro.graphs.line_graph import line_graph
from repro.graphs.traversal import dfs_tree
from repro.runtime.budget import Budget
from tests.core import quadratic_reference as reference

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw):
    """Connected bipartite, plain (possibly disconnected) or worst-case
    family graphs, none with isolated vertices."""
    kind = draw(st.sampled_from(["bipartite", "simple", "family"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "bipartite":
        left, right = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        extra = draw(st.integers(0, 12))
        return random_connected_bipartite(left, right, extra, seed=seed)
    if kind == "simple":
        n = draw(st.integers(3, 16))
        degree = draw(st.integers(2, 4))
        return random_tsp12_graph(n, degree, seed=seed).without_isolated_vertices()
    return worst_case_family(draw(st.integers(1, 12)))


def _dfs_chunk_tour(graph) -> list:
    """The Theorem 3.1 chunk tour, component by component (before polish)."""
    return [
        edge
        for vertex_set in component_vertex_sets(graph)
        for edge in dfs_approx.component_tour_dfs(graph.subgraph(vertex_set))[0]
    ]


@st.composite
def tours(draw):
    graph = draw(graphs())
    if draw(st.booleans()):
        return _dfs_chunk_tour(graph)
    edges = graph.edges()
    random.Random(draw(st.integers(0, 2**16))).shuffle(edges)
    return edges


@SETTINGS
@given(tours())
def test_improve_tour_matches_quadratic_reference(tour):
    assert local_search.improve_tour(tour) == reference.improve_tour(tour)


@SETTINGS
@given(tours(), st.booleans())
def test_single_passes_match_quadratic_reference(tour, two_opt_optimal):
    if two_opt_optimal:  # or-opt's own moves, not 2-opt's, come first
        while reference.two_opt_pass(tour):
            pass
    for jump_local, quadratic in (
        (local_search.two_opt_pass, reference.two_opt_pass),
        (local_search.or_opt_pass, reference.or_opt_pass),
    ):
        mine, theirs = list(tour), list(tour)
        assert jump_local(mine, edges_share_endpoint) == quadratic(theirs)
        assert mine == theirs


def test_passes_match_reference_on_every_small_tsp12_instance():
    # Every weight-1 edge set on up to 6 labelled nodes, toured in label
    # order: up to relabelling, every (instance, tour) pair of that size.
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            good = {pair for bit, pair in enumerate(pairs) if mask >> bit & 1}

            def adjacent(a, b, good=good):
                return (min(a, b), max(a, b)) in good

            def w(a, b, adjacent=adjacent):
                return 1 if adjacent(a, b) else 2

            for jump_local, quadratic in (
                (local_search.two_opt_pass, reference.two_opt_pass),
                (local_search.or_opt_pass, reference.or_opt_pass),
            ):
                mine, theirs = list(range(n)), list(range(n))
                assert jump_local(mine, adjacent) == quadratic(theirs, w)
                assert mine == theirs, (n, sorted(good))


@SETTINGS
@given(graphs())
def test_peel_chunks_match_depth_walk_reference(graph):
    for vertex_set in component_vertex_sets(graph):
        line = line_graph(graph.subgraph(vertex_set))
        root = min(line.vertices, key=repr)
        expected = reference.peel_chunks(dfs_tree(line, root), line)
        assert dfs_approx._peel_chunks(dfs_tree(line, root), line) == expected


@settings(max_examples=40, deadline=None)
@given(graphs(), st.sampled_from(["dfs+polish", "greedy+polish", "matching+polish"]))
def test_polished_schemes_match_reference(graph, method):
    with mock.patch.object(
        local_search, "improve_tour", reference.improve_tour
    ), mock.patch.object(dfs_approx, "_peel_chunks", reference.peel_chunks):
        expected = solve(graph, method).scheme.configurations
    assert solve(graph, method).scheme.configurations == expected


@SETTINGS
@given(
    st.integers(4, 30),
    st.integers(2, 4),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
)
def test_tsp12_two_opt_matches_reference(n, degree, graph_seed, order_seed):
    graph = random_tsp12_graph(n, degree, seed=graph_seed)
    tour = graph.vertices
    random.Random(order_seed).shuffle(tour)
    expected = reference.improve_tsp12_tour(graph, tour)
    assert improve_tsp12_tour(Tsp12Instance(graph), tour) == expected


def test_jump_free_tour_is_returned_as_is():
    tour, _chunks = dfs_approx.component_tour_dfs(path_graph(9))
    assert tour_jumps(tour) == 0
    assert local_search.improve_tour(tour) == tour
    assert local_search.improve_tour(tour[:1]) == tour[:1]
    assert local_search.improve_tour([]) == []


def test_tripped_budget_leaves_polish_input_unchanged():
    graph = worst_case_family(8)
    edges = graph.edges()
    random.Random(3).shuffle(edges)
    scheme = PebblingScheme.from_edge_order(graph, edges)
    tripped = Budget(node_budget=1)
    tripped.poll(2)
    assert tripped.exhausted
    result = local_search.polish_scheme(graph, scheme, budget=tripped)
    assert result.scheme.configurations == scheme.configurations
    assert result.improvement == 0
    # Without the budget the same input does get polished.
    assert local_search.polish_scheme(graph, scheme).improvement > 0
