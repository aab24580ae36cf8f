"""Equijoin graphs split from their hash buckets agree with the BFS split.

``build_join_graph`` under :class:`Equality` records each key's
``(left refs, right refs)`` block on the graph as a decomposition hint, so
``decompose`` and the equijoin solver skip the component search.  The
graph's unhinted ``copy()`` takes the search, and is the oracle: both must
give the same components in the same vertex order, the same bounds and
Betti numbers, and the same answer from every method.  Any mutation drops
the hint.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.costs import effective_cost_bounds, raw_cost_bounds
from repro.core.solvers.equijoin import is_union_of_bicliques, solve_equijoin
from repro.core.solvers.registry import METHODS, solve
from repro.errors import GraphError, PredicateError, SolverError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import betti_number, decompose, is_connected
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Equality
from repro.joins.trace import trace_report
from repro.relations.relation import Relation, TupleRef

# Small key pools: duplicate keys and keys on one side only are common,
# and the float keys 0.0-2.0 equal the integer keys 0-2 (1 == 1.0).
keys = st.one_of(st.integers(0, 6), st.sampled_from([0.0, 1.0, 2.0]))
values = st.lists(keys, max_size=12)


def _split(graph):
    parts = decompose(graph)
    return (
        [(c.left, c.right) for c in parts.components],
        parts.betti,
        list(parts.edge_counts),
        [(p.graph.left, p.graph.right, p.betti) for p in parts.each()],
    )


def _answer(graph, method="auto"):
    result = solve(graph, method)
    return (
        result.method,
        result.effective_cost,
        result.raw_cost,
        result.jumps,
        result.scheme.configurations,
    )


def _summary(graph):
    return (
        betti_number(graph),
        betti_number(graph, ignore_isolated=False),
        is_connected(graph),
        effective_cost_bounds(graph),
        raw_cost_bounds(graph),
    )


def _join(left_values, right_values):
    try:
        return build_join_graph(
            Relation("R", left_values), Relation("S", right_values), Equality()
        )
    except PredicateError:
        # An empty relation has no numeric domain to join with.
        assume(False)


@settings(max_examples=80, deadline=None)
@given(values, values)
@example([1, 1, 2, 2, 2], [2, 1, 2])  # duplicate keys
@example([1, 2, 3], [4, 5])  # keys on one side only
@example([], [])  # empty relations
@example([1, 2.0, 3], [1.0, 2, 2])  # 1 == 1.0
@example([4, 4, 4], [4, 4])  # one block, no isolated vertex
@example([3, 5, 3, 3, 0], [3, 5, 5, 0, 3, 4, 3, 1, 3])  # dfs ties decide π
def test_hinted_split_matches_search(left_values, right_values):
    graph = _join(left_values, right_values)
    oracle = graph.copy()
    assert graph.biclique_blocks() is not None
    assert oracle.biclique_blocks() is None
    assert _split(graph) == _split(oracle)
    assert _summary(graph) == _summary(oracle)
    # The approximate solvers break ties by local edge id, so both splits
    # must intern their components alike.
    for method in METHODS:
        if method != "exact" or graph.num_edges <= 10:
            assert _answer(graph, method) == _answer(oracle, method)
    assert is_union_of_bicliques(graph)
    assert solve_equijoin(graph) == solve_equijoin(oracle)
    if graph.num_edges:
        output = list(solve_equijoin(oracle))
        assert trace_report(graph, output, "x") == trace_report(oracle, output, "x")


def test_single_block_is_the_graph_itself():
    graph = _join([4, 4], [4, 4, 4])
    assert decompose(graph).components == (graph,)
    with_isolated = _join([4, 4, 5], [4])
    (component,) = decompose(with_isolated).components
    assert component is not with_isolated
    assert component.left == [TupleRef("R", 0), TupleRef("R", 1)]


def test_unhashable_keys_fall_back_to_the_search():
    # Lists cannot key a hash bucket: the naive path builds the graph and
    # records no hint, and the search gives the same answer as a copy.
    graph = _join([[1], [2], [1]], [[1], [1], [3]])
    assert graph.biclique_blocks() is None
    assert graph.num_edges == 4
    assert _split(graph) == _split(graph.copy())
    assert _answer(graph) == _answer(graph.copy())
    assert _answer(graph)[0] == "equijoin"


class TestInvalidation:
    def test_remove_edge_drops_the_hint(self):
        graph = _join([1, 1], [1, 1])
        assert solve(graph, "auto").method == "equijoin"
        graph.remove_edge(TupleRef("R", 0), TupleRef("S", 0))
        assert graph.biclique_blocks() is None
        # A 2x2 block less one edge is a path, not a biclique.
        assert not is_union_of_bicliques(graph)
        assert solve(graph, "auto", exact_edge_limit=0).method == "dfs+polish"
        assert solve(graph, "auto").method == "exact"
        with pytest.raises(SolverError):
            solve_equijoin(graph)

    def test_add_edge_drops_the_hint(self):
        graph = _join([1, 2], [1, 2])
        assert decompose(graph).betti == 2
        graph.add_edge(TupleRef("R", 0), TupleRef("S", 1))
        assert graph.biclique_blocks() is None
        assert decompose(graph).betti == 1
        assert betti_number(graph) == 1
        assert solve(graph, "auto").method == "exact"

    def test_add_vertex_drops_the_hint(self):
        graph = _join([1, 1], [1])
        graph.add_right_vertex("extra")
        assert graph.biclique_blocks() is None
        assert betti_number(graph, ignore_isolated=False) == 2
        assert not is_connected(graph)
        # Re-adding a vertex already there changes nothing.
        graph = _join([1, 1], [1])
        graph.add_left_vertex(TupleRef("R", 0))
        assert graph.biclique_blocks() is not None

    def test_a_decomposition_keeps_its_own_split(self):
        graph = _join([1, 2], [1, 2])
        parts = decompose(graph)
        graph.add_edge(TupleRef("R", 0), TupleRef("S", 1))
        assert parts.betti == 2
        assert decompose(graph).betti == 1


class TestAddBicliques:
    def test_rejects_a_graph_with_edges(self):
        graph = BipartiteGraph(edges=[("a", "x")])
        graph.add_left_vertex("b")
        graph.add_right_vertex("y")
        with pytest.raises(GraphError, match="no edges"):
            graph.add_bicliques([(["b"], ["y"])])

    @pytest.mark.parametrize(
        "blocks",
        [
            [(["a"], [])],  # an empty side
            [(["a", "a"], ["x"])],  # a vertex listed twice in one block
            [(["a"], ["x"]), (["a"], ["y"])],  # ... or in two blocks
            [(["x"], ["a"])],  # a vertex on the wrong side
            [(["a"], ["nowhere"])],  # not a vertex of the graph
        ],
    )
    def test_rejects_bad_blocks(self, blocks):
        graph = BipartiteGraph(left=["a", "b"], right=["x", "y"])
        with pytest.raises(GraphError):
            graph.add_bicliques(blocks)
        assert graph.biclique_blocks() is None

    def test_records_the_blocks(self):
        graph = BipartiteGraph(left=["a", "b", "c"], right=["x", "y"])
        graph.add_bicliques([(["a", "c"], ["y"]), (["b"], ["x"])])
        assert graph.biclique_blocks() == ((("a", "c"), ("y",)), (("b",), ("x",)))
        assert graph.num_edges == 3
        assert graph.neighbors("y") == {"a", "c"}
