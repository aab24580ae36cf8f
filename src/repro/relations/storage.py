"""A paged-storage simulator: the page-fetch view of the pebble game.

The pebbling model descends from Merrett, Kambayashi & Yasuura's study of
*page-fetch scheduling* in joins (the paper's reference [6]): there, graph
nodes are disk pages and the two pebbles are two in-memory page frames.
This module makes that lineage concrete: it packs relations into fixed-size
pages, builds the *page connection graph* (pages that must be co-resident
because some tuple pair joining across them), and counts page fetches of a
pebbling scheme played on that graph.

This is a simulator substitute for actual disk I/O — behaviourally faithful
where it matters: the fetch count of a strategy equals the raw pebbling
cost π̂ of the corresponding scheme on the page graph.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import RelationError, SchemeError
from repro.graphs.bipartite import BipartiteGraph
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.relations.relation import Relation, TupleRef
from repro.core.scheme import PebblingScheme
from repro.runtime.faults import maybe_fail


@dataclass(frozen=True, order=True)
class PageRef:
    """One disk page of a relation."""

    relation: str
    page_number: int

    def __repr__(self) -> str:
        return f"{self.relation}:p{self.page_number}"


class PagedRelation:
    """A relation packed into fixed-size pages in tuple order."""

    def __init__(self, relation: Relation, page_size: int) -> None:
        if page_size < 1:
            raise RelationError("page size must be positive")
        self.relation = relation
        self.page_size = page_size

    @property
    def num_pages(self) -> int:
        n = len(self.relation)
        return (n + self.page_size - 1) // self.page_size

    def page_of(self, ref: TupleRef) -> PageRef:
        """The page holding the referenced tuple."""
        if ref.relation != self.relation.name:
            raise RelationError(f"{ref!r} is not a tuple of {self.relation.name!r}")
        return PageRef(self.relation.name, ref.ordinal // self.page_size)

    def pages(self) -> list[PageRef]:
        return [PageRef(self.relation.name, i) for i in range(self.num_pages)]

    def tuples_on(self, page: PageRef) -> list[TupleRef]:
        start = page.page_number * self.page_size
        stop = min(start + self.page_size, len(self.relation))
        return [TupleRef(self.relation.name, i) for i in range(start, stop)]


def page_connection_graph(
    left: PagedRelation,
    right: PagedRelation,
    joins: Callable[[Any, Any], bool],
) -> BipartiteGraph:
    """The bipartite *page* graph of a join: page ``p`` of ``R`` connects to
    page ``q`` of ``S`` iff some tuple on ``p`` joins some tuple on ``q``.

    This is the input of the page-fetch scheduling problem of [6]; playing
    the pebble game on it with two memory frames counts page fetches.
    """
    maybe_fail("storage.page_graph")
    graph = BipartiteGraph(left=left.pages(), right=right.pages())
    with obs_trace.span("storage.page_graph"):
        for p in left.pages():
            left_values = [left.relation.value(t) for t in left.tuples_on(p)]
            for q in right.pages():
                right_values = [
                    right.relation.value(t) for t in right.tuples_on(q)
                ]
                if any(joins(a, b) for a in left_values for b in right_values):
                    graph.add_edge(p, q)
    if obs_recorder.ON:
        obs_metrics.inc("storage.page_graphs")
        obs_metrics.inc(
            "storage.page_pairs_checked", left.num_pages * right.num_pages
        )
    return graph


def page_fetches_of_scheme(scheme: PebblingScheme) -> int:
    """Page fetches incurred by replaying ``scheme`` with two frames.

    Identical to the raw pebbling cost π̂: every pebble placement is a page
    fetch (the initial two placements are the two cold reads).
    """
    return scheme.cost()


@dataclass(frozen=True)
class FetchReport:
    """Fetch accounting for one page-level join schedule."""

    page_pairs: int
    fetches: int
    lower_bound: int  # page_pairs + 1 when connected: best possible

    @property
    def overhead(self) -> float:
        """Fetches per joining page pair beyond the ideal 1.0."""
        if self.page_pairs == 0:
            return 0.0
        return self.fetches / self.page_pairs


def schedule_report(graph: BipartiteGraph, scheme: PebblingScheme) -> FetchReport:
    """Summarize a page-fetch schedule for the page graph ``graph``."""
    maybe_fail("storage.schedule")
    # Pages that join nothing are off the schedule's graph; check them in
    # place rather than validating against a copy without them.
    for a, b in scheme.configurations:
        if not (
            graph.has_vertex(a)
            and graph.degree(a)
            and graph.has_vertex(b)
            and graph.degree(b)
        ):
            raise SchemeError(f"configuration ({a!r}, {b!r}) is off the graph")
    scheme.validate(graph)
    m = graph.num_edges
    fetches = page_fetches_of_scheme(scheme)
    if obs_recorder.ON:
        obs_metrics.inc("storage.schedules")
        obs_metrics.inc("storage.page_fetches", fetches)
    return FetchReport(
        page_pairs=m,
        fetches=fetches,
        lower_bound=m + 1 if m else 0,
    )
