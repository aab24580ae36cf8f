"""Tests for the paged-storage simulator (the [6] page-fetch lineage)."""

import pytest

from repro.core.scheme import PebblingScheme
from repro.errors import RelationError, SchemeError
from repro.relations.relation import Relation, TupleRef
from repro.relations.storage import (
    PagedRelation,
    PageRef,
    page_connection_graph,
    page_fetches_of_scheme,
    schedule_report,
)
from repro.core.solvers.registry import solve


class TestPagedRelation:
    def test_page_count(self):
        r = Relation("R", list(range(10)))
        paged = PagedRelation(r, page_size=3)
        assert paged.num_pages == 4

    def test_page_of(self):
        r = Relation("R", list(range(10)))
        paged = PagedRelation(r, page_size=3)
        assert paged.page_of(TupleRef("R", 0)) == PageRef("R", 0)
        assert paged.page_of(TupleRef("R", 9)) == PageRef("R", 3)

    def test_page_of_wrong_relation(self):
        paged = PagedRelation(Relation("R", [1]), page_size=1)
        with pytest.raises(RelationError):
            paged.page_of(TupleRef("S", 0))

    def test_tuples_on_last_partial_page(self):
        r = Relation("R", list(range(7)))
        paged = PagedRelation(r, page_size=3)
        assert len(paged.tuples_on(PageRef("R", 2))) == 1

    def test_invalid_page_size(self):
        with pytest.raises(RelationError):
            PagedRelation(Relation("R", [1]), page_size=0)


class TestPageGraph:
    def test_equality_page_graph(self):
        # Keys arranged so page 0 of R joins only page 0 of S.
        r = Relation("R", [1, 1, 2, 2])
        s = Relation("S", [1, 1, 2, 2])
        graph = page_connection_graph(
            PagedRelation(r, 2), PagedRelation(s, 2), lambda a, b: a == b
        )
        assert graph.num_edges == 2
        assert graph.has_edge(PageRef("R", 0), PageRef("S", 0))
        assert not graph.has_edge(PageRef("R", 0), PageRef("S", 1))

    def test_dense_page_graph(self):
        r = Relation("R", [1, 1, 1, 1])
        s = Relation("S", [1, 1])
        graph = page_connection_graph(
            PagedRelation(r, 2), PagedRelation(s, 2), lambda a, b: a == b
        )
        assert graph.num_edges == 2  # 2 R-pages x 1 S-page

    def test_fetch_accounting(self):
        r = Relation("R", [1, 1, 2, 2])
        s = Relation("S", [1, 1, 2, 2])
        graph = page_connection_graph(
            PagedRelation(r, 2), PagedRelation(s, 2), lambda a, b: a == b
        )
        result = solve(graph)
        report = schedule_report(graph, result.scheme)
        assert report.page_pairs == 2
        assert report.fetches == page_fetches_of_scheme(result.scheme)
        # Two disjoint page pairs: 4 fetches (two cold starts).
        assert report.fetches == 4
        assert report.overhead == 2.0

    def test_configuration_on_isolated_page_rejected(self):
        r = Relation("R", [1, 1, 3, 3])
        s = Relation("S", [1, 1])
        graph = page_connection_graph(
            PagedRelation(r, 2), PagedRelation(s, 2), lambda a, b: a == b
        )
        assert graph.isolated_vertices() == [PageRef("R", 1)]
        scheme = solve(graph).scheme
        schedule_report(graph, scheme)  # the solved schedule is fine
        detour = PebblingScheme(
            [*scheme.configurations, (PageRef("R", 1), PageRef("S", 0))]
        )
        with pytest.raises(SchemeError, match="off the graph"):
            schedule_report(graph, detour)
        with pytest.raises(SchemeError, match="off the graph"):
            schedule_report(graph, PebblingScheme([(PageRef("R", 9), PageRef("S", 0))]))
