"""Differential tests: the neighbour-list, interned local search, the
incremental peel and the interned greedy return exactly what the
quadratic reference returns."""

import itertools
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.families import worst_case_family
from repro.core.reductions import Tsp12Instance, improve_tsp12_tour
from repro.core.solvers import dfs_approx, greedy, local_search
from repro.core.solvers.registry import solve
from repro.core.tsp import edges_share_endpoint, tour_jumps
from repro.graphs.components import component_vertex_sets
from repro.graphs.generators import (
    path_graph,
    random_connected_bipartite,
    random_tsp12_graph,
)
from repro.graphs.line_graph import EdgeTable, line_graph
from repro.graphs.simple import Graph
from repro.graphs.traversal import dfs_tree
from repro.runtime.budget import Budget
from tests.core import quadratic_reference as reference
from tests.core.split_reference import dfs_tour, greedy_tour, polished_tour
from tests.core.test_dfs_peel_oracle import hub_graphs

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


@st.composite
def leafy_graphs(draw):
    """The leafy family ``random_connected_bipartite(n, n, n // 2)``: one
    hub joined to most vertices, so its incidence list is long; or a
    hub-and-path graph with several hubs."""
    if draw(st.booleans()):
        return draw(hub_graphs())
    n = draw(st.integers(2, 24))
    return random_connected_bipartite(n, n, n // 2, seed=draw(st.integers(0, 2**16)))


def _dfs_chunk_tour(graph) -> list:
    """The Theorem 3.1 chunk tour, component by component (before polish)."""
    return [
        edge
        for vertex_set in component_vertex_sets(graph)
        for edge in dfs_tour(graph.subgraph(vertex_set))[0]
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
    assert polished_tour(tour) == reference.improve_tour(tour)


def _edge_neighbours(tour: list):
    """The neighbour function of a tour's line graph, from incidence."""
    incident: dict = {}
    for edge in tour:
        for vertex in edge:
            incident.setdefault(vertex, []).append(edge)
    return lambda edge: [x for v in edge for x in incident[v] if x != edge]


@st.composite
def shuffled_tours(draw):
    """Random edge orders of leafy and hub graphs: most steps are jumps,
    and the hub's neighbours are a large share of the tour."""
    edges = draw(leafy_graphs()).edges()
    random.Random(draw(st.integers(0, 2**16))).shuffle(edges)
    return edges


@SETTINGS
@given(shuffled_tours())
def test_improve_tour_matches_reference_on_shuffled_hub_tours(tour):
    assert polished_tour(tour) == reference.improve_tour(tour)


@SETTINGS
@given(leafy_graphs())
def test_improve_tour_matches_reference_on_hub_chunk_tours(graph):
    tour = _dfs_chunk_tour(graph)
    assert polished_tour(tour) == reference.improve_tour(tour)


@SETTINGS
@given(st.one_of(graphs(), leafy_graphs()))
def test_greedy_tours_match_line_graph_reference(graph):
    for vertex_set in component_vertex_sets(graph):
        component = graph.subgraph(vertex_set)
        expected = reference.component_tour_greedy(component)
        assert greedy_tour(component) == expected


@SETTINGS
@given(st.one_of(tours(), shuffled_tours()), st.booleans())
def test_single_passes_match_quadratic_reference(tour, two_opt_optimal):
    if two_opt_optimal:  # or-opt's own moves, not 2-opt's, come first
        while reference.two_opt_pass(tour):
            pass
    neighbours = _edge_neighbours(tour)
    for jump_local, quadratic in (
        (local_search.two_opt_pass, reference.two_opt_pass),
        (local_search.or_opt_pass, reference.or_opt_pass),
    ):
        mine, theirs = list(tour), list(tour)
        assert jump_local(mine, edges_share_endpoint, neighbours) == quadratic(theirs)
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

            def neighbours(a, good=good):
                return [b for pair in good if a in pair for b in pair if b != a]

            def w(a, b, adjacent=adjacent):
                return 1 if adjacent(a, b) else 2

            for jump_local, quadratic in (
                (local_search.two_opt_pass, reference.two_opt_pass),
                (local_search.or_opt_pass, reference.or_opt_pass),
            ):
                mine, theirs = list(range(n)), list(range(n))
                assert jump_local(mine, adjacent, neighbours) == quadratic(theirs, w)
                assert mine == theirs, (n, sorted(good))


@SETTINGS
@given(graphs())
def test_peel_chunks_match_depth_walk_reference(graph):
    for vertex_set in component_vertex_sets(graph):
        component = graph.subgraph(vertex_set)
        line = line_graph(component)
        root = min(line.vertices, key=repr)
        expected = reference.peel_chunks(dfs_tree(line, root), line)
        edges = component.edges()
        table = EdgeTable.intern(edges)
        chunks = [[edges[i] for i in chunk] for chunk in dfs_approx._peel(table)]
        assert chunks == expected


@settings(max_examples=40, deadline=None)
@given(graphs(), st.sampled_from(["dfs+polish", "greedy+polish"]))
def test_polished_schemes_match_reference(graph, method):
    if method == "dfs+polish":
        constructive, tour_ids = dfs_approx, reference.dfs_tour_ids(graph)
    else:
        constructive, tour_ids = greedy, reference.greedy_tour_ids(graph)
    with mock.patch.object(
        local_search, "_local_optimum", side_effect=reference.local_optimum
    ) as polish, mock.patch.object(
        constructive, "component_tour_ids", side_effect=tour_ids
    ) as construct:
        expected = solve(graph, method).scheme.configurations
    assert construct.called and polish.called
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


@SETTINGS
@given(
    st.integers(2, 30),
    st.floats(0.02, 0.9),
    st.integers(0, 2),
    st.integers(0, 2**16),
)
def test_tsp12_two_opt_matches_reference_on_dense_and_hub_instances(
    n, density, hubs, seed
):
    # Weight-1 edges drawn at any density, plus hubs joined to every node:
    # long neighbour lists and instances with no degree bound.
    rng = random.Random(seed)
    graph = Graph(vertices=range(n))
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density or a < hubs:
            graph.add_edge(a, b)
    tour = graph.vertices
    rng.shuffle(tour)
    expected = reference.improve_tsp12_tour(graph, tour)
    assert improve_tsp12_tour(Tsp12Instance(graph), tour) == expected


def test_jump_free_tour_is_returned_as_is():
    tour, _chunks = dfs_tour(path_graph(9))
    assert tour_jumps(tour) == 0
    assert polished_tour(tour) == tour
    assert polished_tour(tour[:1]) == tour[:1]
    assert polished_tour([]) == []


def test_tripped_budget_leaves_polish_input_unchanged():
    graph = worst_case_family(8)
    edges = graph.edges()
    random.Random(3).shuffle(edges)
    tripped = Budget(node_budget=1)
    tripped.poll(2)
    assert tripped.exhausted
    tables = [EdgeTable.intern(edges)]
    tour = list(range(len(edges)))
    result = local_search.polish_scheme(tables, [tour], budget=tripped)
    assert result.tours == [tour]
    assert result.improvement == 0
    # Without the budget the same input does get polished.
    assert local_search.polish_scheme(tables, [tour]).improvement > 0
