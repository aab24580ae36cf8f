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
- band join → sort both sides and slide a merge window.

The accelerated paths are *exact* (the spatial sweep is the full predicate
for rectangles; polygons fall back to bounding-box filter + verify), and
tests assert they agree with the naive path on random instances.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.graphs.bipartite import BipartiteGraph
from repro.geometry.primitives import Polygon, Rectangle
from repro.geometry.sweep import sweep_rectangle_pairs
from repro.joins.predicates import Equality, JoinPredicate, SetContainment
from repro.obs import metrics as obs_metrics
from repro.relations.domains import Domain
from repro.relations.relation import Relation
from repro.sets.inverted import InvertedIndex


def _empty_graph(left: Relation, right: Relation) -> BipartiteGraph:
    return BipartiteGraph(left=left.refs(), right=right.refs())


def _dedup_pairs(pairs):
    """Yield each (left-ref, right-ref) pair once, in first-seen order."""
    seen: set = set()
    for pair in pairs:
        if pair not in seen:
            seen.add(pair)
            yield pair


def _add_edges(graph: BipartiteGraph, pairs) -> BipartiteGraph:
    """The single edge-insertion point shared by every extraction path.

    Accelerated paths can surface the same candidate pair more than once
    (duplicate sweep events, posting-list unions); the naive path cannot.
    ``BipartiteGraph.add_edge`` happens to be idempotent (set-backed), so
    paths that skipped their own dedup were still correct — but only by
    accident of the storage choice.  Routing every path through one dedup
    point makes the semantics uniform by construction, and a multigraph-
    backed storage swap could no longer silently diverge between paths.
    """
    for r_ref, s_ref in _dedup_pairs(pairs):
        graph.add_edge(r_ref, s_ref)
    return graph


def _naive(left: Relation, right: Relation, predicate: JoinPredicate) -> BipartiteGraph:
    graph = _empty_graph(left, right)
    return _add_edges(
        graph,
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
    graph = _empty_graph(left, right)
    left_entries = [(value, ref) for ref, value in left.items()]
    right_entries = [(value, ref) for ref, value in right.items()]
    return _add_edges(graph, sweep_rectangle_pairs(left_entries, right_entries))


def _polygon_filter_verify(
    left: Relation, right: Relation, predicate: JoinPredicate
) -> BipartiteGraph:
    # Filter on bounding boxes with the sweep, verify with the real test.
    # Candidates are deduplicated *before* verification so each pair pays
    # the exact predicate at most once.
    graph = _empty_graph(left, right)
    left_entries = [(value.bounding_box(), ref) for ref, value in left.items()]
    right_entries = [(value.bounding_box(), ref) for ref, value in right.items()]
    candidates = _dedup_pairs(sweep_rectangle_pairs(left_entries, right_entries))
    return _add_edges(
        graph,
        (
            (r_ref, s_ref)
            for r_ref, s_ref in candidates
            if predicate.matches(left.value(r_ref), right.value(s_ref))
        ),
    )


def _sweep_intervals(left: Relation, right: Relation) -> BipartiteGraph:
    from repro.geometry.interval import sweep_interval_pairs

    graph = _empty_graph(left, right)
    left_entries = [(value, ref) for ref, value in left.items()]
    right_entries = [(value, ref) for ref, value in right.items()]
    return _add_edges(graph, sweep_interval_pairs(left_entries, right_entries))


def _inverted_containment(left: Relation, right: Relation) -> BipartiteGraph:
    graph = _empty_graph(left, right)
    index = InvertedIndex([(ref, value) for ref, value in right.items()])
    return _add_edges(
        graph,
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

    return _add_edges(_empty_graph(left, right), pairs())


def _sorted_band(left: Relation, right: Relation, width: float) -> BipartiteGraph:
    # Classic band-join merge: sort both sides, slide a window of radius
    # `width` over the right side as the left side advances.
    def pairs():
        left_sorted = sorted(left.items(), key=lambda item: item[1])
        right_sorted = sorted(right.items(), key=lambda item: item[1])
        low = 0
        for r_ref, r_val in left_sorted:
            # Window bounds compare the *difference* against the width,
            # exactly as Band.matches computes |a - b| <= width; the
            # algebraically equal forms `right < r_val - width` /
            # `right <= r_val + width` round differently near the boundary
            # and disagree with the predicate.
            while low < len(right_sorted) and r_val - right_sorted[low][1] > width:
                low += 1
            probe = low
            while (
                probe < len(right_sorted)
                and right_sorted[probe][1] - r_val <= width
            ):
                yield r_ref, right_sorted[probe][0]
                probe += 1

    return _add_edges(_empty_graph(left, right), pairs())


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
        return _sorted_band(left, right, predicate.width)
    return _naive(left, right, predicate)


# A small LRU of recently built join graphs.  Keys combine object identity
# with the (append-only) relation lengths, so a relation that grows after
# caching can never alias a stale graph; holding strong references to the
# relations in the value pins their ids for the entry's lifetime.
_GRAPH_CACHE: OrderedDict = OrderedDict()
_GRAPH_CACHE_LIMIT = 16


def _predicate_cache_key(predicate: JoinPredicate) -> tuple:
    return (type(predicate).__name__, tuple(sorted(vars(predicate).items())))


def clear_join_graph_cache() -> None:
    """Drop every memoized join graph (tests and long-lived processes)."""
    _GRAPH_CACHE.clear()


def build_join_graph_cached(
    left: Relation,
    right: Relation,
    predicate: JoinPredicate,
    accelerate: bool = True,
) -> BipartiteGraph:
    """Memoized :func:`build_join_graph`.

    Re-planning and re-executing the same query (the executor's trace
    path, repeated benchmark rounds) previously rebuilt the identical
    join graph each time; this front-end returns the cached graph
    instead and records the saved work under the
    ``joins.join_graph_cache.*`` metrics counters.  The returned graph is
    **shared** — callers must treat it as read-only.
    """
    key = (
        id(left),
        len(left),
        id(right),
        len(right),
        _predicate_cache_key(predicate),
        accelerate,
    )
    entry = _GRAPH_CACHE.get(key)
    if entry is not None and entry[0] is left and entry[1] is right:
        _GRAPH_CACHE.move_to_end(key)
        obs_metrics.inc("joins.join_graph_cache.hits")
        return entry[2]
    graph = build_join_graph(left, right, predicate, accelerate)
    obs_metrics.inc("joins.join_graph_cache.misses")
    _GRAPH_CACHE[key] = (left, right, graph)
    while len(_GRAPH_CACHE) > _GRAPH_CACHE_LIMIT:
        _GRAPH_CACHE.popitem(last=False)
    return graph


def join_output_size(graph: BipartiteGraph) -> int:
    """``m``: the number of result tuples — the paper's input-size measure
    for the pebbling problem ("our results are expressed in terms of the
    output size", §2)."""
    return graph.num_edges
