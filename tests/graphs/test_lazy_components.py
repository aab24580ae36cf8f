"""A BFS split keeps its vertex sets and builds component graphs lazily.

``betti`` and ``edge_counts`` come from the vertex sets and the degrees,
with no ``subgraph`` call; ``components``, built on first access, must be
exactly what the eager split built: the induced subgraph of each vertex
set with more than one vertex, in BFS order, in the parent's vertex order.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import (
    component_vertex_sets,
    decompose,
    disjoint_union_many,
)
from repro.graphs.generators import random_connected_bipartite
from repro.graphs.simple import Graph
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Band, SetContainment, SpatialOverlap
from repro.relations.relation import Relation
from repro.workloads.sets import zipf_sets_workload
from repro.workloads.spatial import uniform_rectangles_workload


def _eager_components(graph):
    """The split as it was built before the vertex sets were kept."""
    vertex_sets = component_vertex_sets(graph)
    if len(vertex_sets) == 1 and len(vertex_sets[0]) > 1:
        return (graph,)
    return tuple(graph.subgraph(vs) for vs in vertex_sets if len(vs) > 1)


def _floats(n: int, seed: int) -> tuple[Relation, Relation]:
    rng = random.Random(seed)
    return (
        Relation("R", [rng.uniform(0.0, 1000.0) for _ in range(n)]),
        Relation("S", [rng.uniform(0.0, 1000.0) for _ in range(n)]),
    )


def _graphs():
    for seed in range(4):
        left, right = uniform_rectangles_workload(60, 60, extent=60.0, seed=seed)
        yield f"spatial-{seed}", build_join_graph(left, right, SpatialOverlap())
        left, right = zipf_sets_workload(40, 40, universe=150, seed=seed)
        yield f"containment-{seed}", build_join_graph(left, right, SetContainment())
        left, right = _floats(120, seed)
        yield f"band-{seed}", build_join_graph(left, right, Band(1.0))
        parts = [
            random_connected_bipartite(2 + k, 1 + k, k, seed=seed * 10 + k)
            for k in range(5)
        ]
        union = disjoint_union_many(parts)
        union.add_left_vertex(("isolated", seed))
        yield f"random-union-{seed}", union
        yield f"random-connected-{seed}", random_connected_bipartite(
            8, 9, 6, seed=seed
        )


GRAPHS = list(_graphs())


def _shape(graph):
    if isinstance(graph, BipartiteGraph):
        return (
            graph.left,
            graph.right,
            [sorted(graph.neighbors(v), key=repr) for v in graph],
        )
    return (list(graph), [sorted(graph.neighbors(v), key=repr) for v in graph])


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_counts_without_components_then_same_components(name, graph, monkeypatch):
    calls = []
    original = type(graph).subgraph
    monkeypatch.setattr(
        type(graph),
        "subgraph",
        lambda self, keep: calls.append(1) or original(self, keep),
    )
    parts = decompose(graph)
    counts = parts.edge_counts
    betti = parts.betti
    assert calls == []
    eager = _eager_components(graph)
    assert counts == [c.num_edges for c in parts.components]
    assert betti == len(eager)
    assert sum(counts) == graph.num_edges
    assert len(parts.components) == len(eager)
    for lazy, expected in zip(parts.components, eager):
        assert lazy == expected
        assert _shape(lazy) == _shape(expected)


@pytest.mark.parametrize("kind", ["spatial", "containment", "band", "random-union"])
def test_each_kind_has_split_graphs(kind):
    # The seeded graphs exercise the split, not only the connected case.
    assert any(
        decompose(graph).betti > 1
        for name, graph in GRAPHS
        if name.rsplit("-", 1)[0] == kind
    )


def test_plain_graph_edge_counts():
    graph = Graph(vertices=range(8))
    for u, v in [(0, 1), (1, 2), (2, 0), (4, 5), (6, 7), (5, 6)]:
        graph.add_edge(u, v)
    parts = decompose(graph)
    assert parts.edge_counts == [3, 3]
    assert parts.betti == 2
    assert [c.num_edges for c in parts.components] == [3, 3]
    assert [list(c) for c in parts.components] == [[0, 1, 2], [4, 5, 6, 7]]
