"""E-L3.3 / E-L3.4: universality of containment and spatial joins.

Regenerates: tables showing arbitrary bipartite graphs (and the worst-case
family) realized exactly as set-containment instances (Lemma 3.3) and as
rectangle/comb-polygon spatial instances (Lemma 3.4 + the comb
construction).
"""

from repro.analysis.report import Table
from repro.graphs.generators import random_bipartite_gnm
from repro.geometry.realize import (
    realize_bipartite_with_combs,
    realize_worst_case_family,
)
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import SetContainment, SpatialOverlap
from repro.relations.relation import TupleRef
from repro.core.families import worst_case_family
from repro.sets.realize import realize_bipartite_as_containment


def _isomorphic(join_graph, target) -> bool:
    left_map = {TupleRef("R", i): v for i, v in enumerate(target.left)}
    right_map = {TupleRef("S", j): v for j, v in enumerate(target.right)}
    got = {(left_map[u], right_map[v]) for u, v in join_graph.edges()}
    return got == set(target.edges())


def test_containment_universality_table(emit):
    targets = [random_bipartite_gnm(4, 4, 4 + s, seed=s) for s in range(6)]
    targets.append(worst_case_family(5))

    table = Table(
        ["case", "m", "exact_realization"],
        title="E-L3.3: any bipartite graph as a set-containment join",
    )
    for index, target in enumerate(targets):
        left, right = realize_bipartite_as_containment(target)
        join_graph = build_join_graph(left, right, SetContainment())
        table.add_row([index, target.num_edges, _isomorphic(join_graph, target)])
    emit("E-L3.3_containment_universality", table)
    assert all(row[-1] == "True" for row in table._rows)


def test_spatial_universality_table(emit):
    targets = [random_bipartite_gnm(3, 4, 5 + s, seed=40 + s) for s in range(4)]

    table = Table(
        ["case", "m", "realization", "exact_match"],
        title="E-L3.4: spatial realizations (rectangles & intervals for G_n; combs universally)",
    )
    for n in (3, 5):
        left, right = realize_worst_case_family(n)
        join_graph = build_join_graph(left, right, SpatialOverlap())
        table.add_row(
            [f"G_{n}", 2 * n, "rectangles", _isomorphic(join_graph, worst_case_family(n))]
        )
    # The 1D nesting realization: even temporal joins attain Thm 3.3.
    from repro.geometry.interval import realize_worst_case_intervals
    from repro.relations.relation import Relation

    for n in (3, 5):
        left_values, right_values = realize_worst_case_intervals(n)
        join_graph = build_join_graph(
            Relation("R", left_values), Relation("S", right_values), SpatialOverlap()
        )
        table.add_row(
            [f"G_{n}", 2 * n, "intervals", _isomorphic(join_graph, worst_case_family(n))]
        )
    for index, target in enumerate(targets):
        left, right = realize_bipartite_with_combs(target)
        join_graph = build_join_graph(left, right, SpatialOverlap())
        table.add_row(
            [f"random_{index}", target.num_edges, "comb polygons", _isomorphic(join_graph, target)]
        )
    emit("E-L3.4_spatial_universality", table)
    for row in table._rows:
        assert "False" not in row
