"""Join-graph extraction (paper §2).

``build_join_graph(R, S, θ)`` produces the bipartite graph with one vertex
per tuple and one edge per θ-matching pair — the exact object the pebble
game is played on.  A naive O(|R|·|S|) evaluation always works; for the
three predicate classes the paper studies, accelerated extraction paths are
used automatically:

- equality → hash partitioning on the join key;
- spatial overlap over rectangles → plane sweep (polygons: bounding-box
  filter + exact verify);
- set containment → inverted index on the right relation (posting-list
  intersection);
- set overlap → inverted index (posting-list union);
- band join → sort both sides and slide a merge window (the band merge
  join's windows).

The accelerated paths are *exact* (the spatial sweep is the full predicate
for rectangles; polygons fall back to bounding-box filter + verify), and
tests assert they agree with the naive path on random instances.
"""

from __future__ import annotations

from repro.graphs.bipartite import BipartiteGraph
from repro.geometry.primitives import Polygon, Rectangle
from repro.geometry.sweep import sweep_rectangle_pairs
from repro.joins.algorithms.band_join import band_merge_join
from repro.joins.predicates import Equality, JoinPredicate, SetContainment
from repro.relations.domains import Domain
from repro.relations.relation import Relation
from repro.sets.inverted import InvertedIndex


def _with_edges(left: Relation, right: Relation, pairs) -> BipartiteGraph:
    """Both relations' refs as the two sides, ``pairs`` as the edges.

    ``BipartiteGraph.add_edges`` is the single edge-insertion point of
    every extraction path: accelerated paths can surface the same
    candidate pair more than once (duplicate sweep events, posting-list
    unions), and it keeps a repeated pair as one edge.
    """
    graph = BipartiteGraph(left=left.refs(), right=right.refs())
    graph.add_edges(pairs)
    return graph


def _naive(left: Relation, right: Relation, predicate: JoinPredicate) -> BipartiteGraph:
    return _with_edges(
        left,
        right,
        (
            (r_ref, s_ref)
            for r_ref, r_val in left.items()
            for s_ref, s_val in right.items()
            if predicate.matches(r_val, s_val)
        ),
    )


def _hash_equality(left: Relation, right: Relation) -> BipartiteGraph:
    """Both sides grouped by key; each key's pair of groups is one
    complete bipartite component (Thm 3.2, Lemma 3.2), added whole and
    recorded as the graph's decomposition hint.  Groups are listed in
    order of their key's first left tuple, which is the order the
    component search would find them in."""
    left_refs, right_refs = left.refs(), right.refs()
    graph = BipartiteGraph(left=left_refs, right=right_refs)
    buckets: dict = {}
    for s_ref, s_val in zip(right_refs, right):
        buckets.setdefault(s_val, []).append(s_ref)
    groups: dict = {}
    for r_ref, r_val in zip(left_refs, left):
        groups.setdefault(r_val, []).append(r_ref)
    graph.add_bicliques(
        (lefts, buckets[key]) for key, lefts in groups.items() if key in buckets
    )
    return graph


def _sweep_spatial(left: Relation, right: Relation) -> BipartiteGraph:
    left_entries = [(value, ref) for ref, value in left.items()]
    right_entries = [(value, ref) for ref, value in right.items()]
    return _with_edges(left, right, sweep_rectangle_pairs(left_entries, right_entries))


def _polygon_filter_verify(
    left: Relation, right: Relation, predicate: JoinPredicate
) -> BipartiteGraph:
    # Filter on bounding boxes with the sweep, verify with the real test.
    # Candidates are deduplicated (keep-first) *before* verification so
    # each pair pays the exact predicate at most once.
    left_entries = [(value.bounding_box(), ref) for ref, value in left.items()]
    right_entries = [(value.bounding_box(), ref) for ref, value in right.items()]
    candidates = dict.fromkeys(sweep_rectangle_pairs(left_entries, right_entries))
    return _with_edges(
        left,
        right,
        (
            (r_ref, s_ref)
            for r_ref, s_ref in candidates
            if predicate.matches(left.value(r_ref), right.value(s_ref))
        ),
    )


def _sweep_intervals(left: Relation, right: Relation) -> BipartiteGraph:
    from repro.geometry.interval import sweep_interval_pairs

    left_entries = [(value, ref) for ref, value in left.items()]
    right_entries = [(value, ref) for ref, value in right.items()]
    return _with_edges(left, right, sweep_interval_pairs(left_entries, right_entries))


def _inverted_containment(left: Relation, right: Relation) -> BipartiteGraph:
    index = InvertedIndex([(ref, value) for ref, value in right.items()])
    return _with_edges(
        left,
        right,
        (
            (r_ref, s_ref)
            for r_ref, r_val in left.items()
            for s_ref in index.superset_candidates(r_val)
        ),
    )


def _inverted_set_overlap(left: Relation, right: Relation) -> BipartiteGraph:
    # Overlap = union (not intersection) of the posting lists of the left
    # set's elements; exact, no verification needed.
    def pairs():
        index = InvertedIndex([(ref, value) for ref, value in right.items()])
        for r_ref, r_val in left.items():
            candidates: set = set()
            for element in r_val:
                candidates |= index.postings(element)
            for s_ref in sorted(candidates, key=repr):
                yield r_ref, s_ref

    return _with_edges(left, right, pairs())


def build_join_graph(
    left: Relation,
    right: Relation,
    predicate: JoinPredicate,
    accelerate: bool = True,
) -> BipartiteGraph:
    """The join graph of ``left ⋈_θ right``.

    Vertices are :class:`~repro.relations.relation.TupleRef` objects; the
    left/right sides follow the relations.  With ``accelerate=False`` the
    naive cross-product evaluation is forced (useful as an oracle).
    """
    predicate.check_domains(left.domain, right.domain)
    if not accelerate:
        return _naive(left, right, predicate)
    if isinstance(predicate, Equality):
        try:
            return _hash_equality(left, right)
        except TypeError:  # unhashable values: fall back to naive
            return _naive(left, right, predicate)
    if predicate.name == "spatial-overlap":
        if left.domain == Domain.INTERVAL and right.domain == Domain.INTERVAL:
            return _sweep_intervals(left, right)
        if left.domain == Domain.RECTANGLE and right.domain == Domain.RECTANGLE:
            return _sweep_spatial(left, right)
        if left.domain == Domain.POLYGON and right.domain == Domain.POLYGON:
            return _polygon_filter_verify(left, right, predicate)
    if isinstance(predicate, SetContainment):
        return _inverted_containment(left, right)
    if predicate.name == "set-overlap":
        return _inverted_set_overlap(left, right)
    if predicate.name == "band":
        return _with_edges(left, right, band_merge_join(left, right, predicate.width))
    return _naive(left, right, predicate)


def join_output_size(graph: BipartiteGraph) -> int:
    """``m``: the number of result tuples — the paper's input-size measure
    for the pebbling problem ("our results are expressed in terms of the
    output size", §2)."""
    return graph.num_edges
