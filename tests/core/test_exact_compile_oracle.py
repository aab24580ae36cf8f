"""Differential tests: the exact search compiled from a component's edge
table (``line_masks``) agrees with the line-graph compile kept in
``tests/core/exact_reference.py``: the same masks in the same order, the
same partitions and node counts with and without the ordering heuristic,
and the same solve as the split-per-solver reference."""

from hypothesis import given, settings, strategies as st

from repro.core.solvers.exact import (
    _PathPartitionSearch,
    exact_search_effort,
    line_masks,
    optimal_component_tour,
    solve_exact,
)
from repro.core.solvers.registry import solve
from repro.errors import InstanceTooLargeError
from repro.graphs.components import decompose
from repro.graphs.generators import (
    random_bipartite_gnm,
    random_connected_bipartite,
    random_tsp12_graph,
)
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Equality
from repro.relations.relation import Relation
from tests.core import exact_reference as reference
from tests.core import split_reference

# Raw-order search on a 15-edge component can take ~10^5 nodes; a
# budget-stopped search must stop alike on both compiles.
NODE_BUDGET = 100_000


@st.composite
def graphs(draw):
    """Random bipartite graphs, connected or not (isolated vertices
    included), plain graphs, and equijoin graphs that carry their blocks
    as a decomposition hint."""
    kind = draw(st.sampled_from(["bipartite", "connected", "plain", "equijoin"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "bipartite":
        left, right = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        m = draw(st.integers(0, min(14, left * right)))
        return random_bipartite_gnm(left, right, m, seed=seed)
    if kind == "connected":
        left, right = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        extra = draw(st.integers(0, 3))
        return random_connected_bipartite(left, right, extra, seed=seed)
    if kind == "plain":
        n, degree = draw(st.integers(4, 12)), draw(st.integers(2, 3))
        return random_tsp12_graph(n, degree, seed=seed)
    keys = st.lists(st.integers(0, 3), min_size=1, max_size=6)
    return build_join_graph(
        Relation("R", draw(keys)), Relation("S", draw(keys)), Equality()
    )


def _search(adjacency: list[int], use_ordering: bool) -> tuple:
    search = _PathPartitionSearch(adjacency, NODE_BUDGET, use_ordering=use_ordering)
    try:
        found = search.minimum()
    except InstanceTooLargeError:
        found = None
    return found, search.nodes_expanded


def _answer(result) -> tuple:
    return (
        result.method,
        result.effective_cost,
        result.raw_cost,
        result.jumps,
        result.status,
        result.optimal,
        result.scheme.configurations,
    )


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_table_compile_matches_line_graph_compile(graph):
    parts = decompose(graph)
    for component, table in zip(parts.components, parts.tables):
        order, adjacency = reference.compile_line_graph(component)
        # Search index i is edge id i.
        assert table.pairs() == order
        masks = line_masks(table)
        assert masks == adjacency
        for use_ordering in (True, False):
            assert _search(masks, use_ordering) == _search(adjacency, use_ordering)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_exact_solve_matches_line_graph_reference(graph):
    parts = decompose(graph)
    expected_nodes = 0
    for component, table in zip(parts.components, parts.tables):
        tour, nodes = optimal_component_tour(component, table)
        expected_tour, expected = reference.optimal_component_tour(component)
        assert (table.pairs(tour), nodes) == (expected_tour, expected)
        expected_nodes += expected
    assert solve_exact(graph).search_nodes == expected_nodes
    assert _answer(solve(graph, "exact")) == _answer(
        split_reference.solve(graph, "exact")
    )


@settings(max_examples=60, deadline=None)
@given(graphs(), st.booleans())
def test_search_effort_matches_line_graph_reference(graph, use_ordering):
    expected = 0
    for component in decompose(graph).components:
        _order, adjacency = reference.compile_line_graph(component)
        found, nodes = _search(adjacency, use_ordering)
        if found is None:
            return  # past the budget: the effort probe raises, as it should
        expected += nodes
    effort = exact_search_effort(graph, use_ordering, node_budget=NODE_BUDGET)
    assert effort == expected
