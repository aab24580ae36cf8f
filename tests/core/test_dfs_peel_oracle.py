"""Differential tests: the incremental Theorem 3.1 peel on interned edges
and the heap-indexed greedy chunk reordering return exactly what the
quadratic reference (explicit ``L(G)``, rewired ``RootedTree``, full
rescans) returns: the same tours, chunk counts and solve results."""

import itertools
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.families import worst_case_family
from repro.core.solvers import dfs_approx
from repro.core.solvers.registry import solve
from repro.core.tsp import reorder_paths_greedily
from repro.graphs.components import component_vertex_sets
from repro.graphs.generators import (
    all_small_bipartite_graphs,
    random_connected_bipartite,
    random_tsp12_graph,
)
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.simple import Graph
from repro.graphs.traversal import as_bipartite
from tests.core import quadratic_reference as reference
from tests.core.split_reference import dfs_tour

SETTINGS = settings(max_examples=60, deadline=None)


def assert_tours_match(graph) -> None:
    for vertex_set in component_vertex_sets(graph):
        component = graph.subgraph(vertex_set)
        assert dfs_tour(component) == reference.component_tour_dfs(component)


@st.composite
def connected_bipartite(draw):
    left, right = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    extra = draw(st.integers(0, 60))
    return random_connected_bipartite(left, right, extra, seed=draw(st.integers(0, 2**16)))


@st.composite
def hub_graphs(draw):
    """Stars and double stars whose hubs are joined by paths, as a plain
    ``Graph`` or its bipartite form: many twin leaves under high-degree
    line-graph cliques, so every rewiring case of the peel comes up."""
    labels = itertools.count()
    graph = Graph()
    for _ in range(draw(st.integers(1, 5))):
        # A path from a vertex placed so far, ending at the new hub.
        earlier = graph.vertices
        hub = next(labels)
        graph.add_vertex(hub)
        if earlier:
            previous = earlier[draw(st.integers(0, len(earlier) - 1))]
            for _ in range(draw(st.integers(0, 4))):
                step = next(labels)
                graph.add_edge(previous, step)
                previous = step
            graph.add_edge(previous, hub)
        for _ in range(draw(st.integers(0, 7))):
            graph.add_edge(hub, next(labels))
        if draw(st.booleans()):  # a double star: a second hub next to it
            other = next(labels)
            graph.add_edge(hub, other)
            for _ in range(draw(st.integers(0, 6))):
                graph.add_edge(other, next(labels))
    if graph.num_edges == 0:
        graph.add_edge(next(labels), next(labels))
    return as_bipartite(graph) if draw(st.booleans()) else graph


@st.composite
def plain_or_family(draw):
    if draw(st.booleans()):
        return worst_case_family(draw(st.integers(1, 16)))
    n = draw(st.integers(3, 40))
    degree = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    return random_tsp12_graph(n, degree, seed=seed).without_isolated_vertices()


@SETTINGS
@given(connected_bipartite())
def test_tours_match_reference_on_connected_bipartite(graph):
    assert_tours_match(graph)


@SETTINGS
@given(hub_graphs())
def test_tours_match_reference_on_hub_graphs(graph):
    assert_tours_match(graph)


@SETTINGS
@given(plain_or_family())
def test_tours_match_reference_on_plain_graphs_and_family(graph):
    assert_tours_match(graph)


def test_tours_match_reference_on_every_small_bipartite_graph():
    for n_left, n_right in ((1, 4), (2, 2), (2, 3), (2, 4), (3, 3)):
        for graph in all_small_bipartite_graphs(n_left, n_right):
            assert_tours_match(graph)


def test_tours_match_reference_on_small_random_connected_graphs():
    for seed in range(1000):
        rng = random.Random(seed)
        left, right, extra = rng.randint(2, 12), rng.randint(2, 12), rng.randint(0, 10)
        assert_tours_match(random_connected_bipartite(left, right, extra, seed=seed))


def test_rewired_chain_keeps_its_capped_size():
    # A hub with pendant paths: a twin rewiring re-hangs a 3-node chain
    # under a node whose other child is peeled next, after which that node
    # is the next chunk only if the chain still counts 3 nodes.
    graph = BipartiteGraph(
        edges=[("u0", f"v{j}") for j in (1, 10, 2, 3, 4, 5, 7, 8, 9)]
        + [("u1", "v4"), ("u10", "v8"), ("u11", "v4"), ("u2", "v0"), ("u2", "v1")]
        + [("u4", "v10"), ("u5", "v9"), ("u6", "v5"), ("u7", "v1"), ("u8", "v7")]
        + [("u9", "v1")]
    )
    assert_tours_match(graph)


@st.composite
def path_lists(draw):
    """Lists of edge paths over a small vertex pool, so end edges often
    share endpoints; the reordering only reads the end edges."""
    pool = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**16)))

    def edge():
        u, v = rng.sample(range(pool), 2)
        return (f"u{u}", f"v{v}") if rng.random() < 0.5 else (u, v)

    return [
        [edge() for _ in range(rng.randint(1, 4))]
        for _ in range(draw(st.integers(0, 40)))
    ]


@settings(max_examples=200, deadline=None)
@given(path_lists())
def test_reorder_paths_greedily_matches_reference(paths):
    before = [list(p) for p in paths]
    ordered = reorder_paths_greedily(paths, lambda edge: edge)
    assert ordered == reference.reorder_paths_greedily(paths)
    assert paths == before


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(connected_bipartite(), hub_graphs(), plain_or_family()),
    st.sampled_from(["dfs", "dfs+polish", "auto"]),
)
def test_solve_results_match_reference(graph, method):
    def outcome():
        result = solve(graph, method)
        return (
            result.scheme.configurations,
            result.method,
            result.effective_cost,
            result.raw_cost,
            result.jumps,
            result.status,
            result.provenance,
        )

    with mock.patch.object(
        dfs_approx, "component_tour_ids", side_effect=reference.dfs_tour_ids(graph)
    ) as peel:
        expected = outcome()
    # The reference ran exactly when the answer came from the peel.
    assert peel.called == expected[1].startswith("dfs")
    assert outcome() == expected
