"""Tests for Relation, TupleRef, and domains."""

import pytest

from repro.errors import PredicateError, RelationError
from repro.geometry.primitives import Polygon, Rectangle
from repro.relations.domains import Domain, common_domain, infer_domain
from repro.relations.relation import Relation, TupleRef


class TestDomainInference:
    def test_numeric(self):
        assert infer_domain(3) == Domain.NUMERIC
        assert infer_domain(2.5) == Domain.NUMERIC

    def test_bool_is_not_numeric(self):
        assert infer_domain(True) == Domain.OTHER

    def test_string(self):
        assert infer_domain("abc") == Domain.STRING

    def test_sets(self):
        assert infer_domain({1, 2}) == Domain.SET
        assert infer_domain(frozenset([1])) == Domain.SET

    def test_geometry(self):
        assert infer_domain(Rectangle(0, 0, 1, 1)) == Domain.RECTANGLE
        assert infer_domain(Polygon([(0, 0), (1, 0), (0, 1)])) == Domain.POLYGON

    def test_common_domain(self):
        assert common_domain([1, 2, 3]) == Domain.NUMERIC
        assert common_domain([]) == Domain.OTHER

    def test_mixed_column_rejected(self):
        with pytest.raises(PredicateError):
            common_domain([1, "a"])

    def test_capabilities(self):
        assert Domain.RECTANGLE.supports_overlap
        assert not Domain.NUMERIC.supports_overlap
        assert Domain.SET.supports_containment
        assert not Domain.STRING.supports_containment
        assert Domain.SET.supports_equality


class TestRelation:
    def test_basic(self):
        r = Relation("R", [1, 2, 2])
        assert len(r) == 3
        assert r.domain == Domain.NUMERIC
        assert r.values == [1, 2, 2]

    def test_name_required(self):
        with pytest.raises(RelationError):
            Relation("")

    def test_multiset_semantics(self):
        r = Relation("R", [5, 5, 5])
        assert len(r.refs()) == 3
        assert r.multiplicity(5) == 3

    def test_refs_and_values(self):
        r = Relation("R", ["a", "b"])
        refs = r.refs()
        assert refs == [TupleRef("R", 0), TupleRef("R", 1)]
        assert r.value(refs[1]) == "b"

    def test_value_wrong_relation(self):
        r = Relation("R", [1])
        with pytest.raises(RelationError):
            r.value(TupleRef("S", 0))

    def test_value_out_of_range(self):
        r = Relation("R", [1])
        with pytest.raises(RelationError):
            r.value(TupleRef("R", 5))

    def test_values_of_matches_value_in_order(self):
        r = Relation("R", [10, 20, 30])
        refs = [TupleRef("R", 2), TupleRef("R", 0), TupleRef("R", 2)]
        assert r.values_of(refs) == [r.value(ref) for ref in refs] == [30, 10, 30]
        assert r.values_of(iter(refs)) == [30, 10, 30]
        assert r.values_of([]) == []

    @pytest.mark.parametrize(
        "bad", [TupleRef("S", 0), TupleRef("R", 3), TupleRef("R", -1)]
    )
    def test_values_of_raises_like_value(self, bad):
        r = Relation("R", [10, 20, 30])
        with pytest.raises(RelationError) as from_value:
            r.value(bad)
        with pytest.raises(RelationError) as from_batch:
            r.values_of([TupleRef("R", 1), bad, TupleRef("R", 0)])
        assert str(from_batch.value) == str(from_value.value)

    def test_append_returns_ref(self):
        r = Relation("R", [1])
        ref = r.append(9)
        assert ref == TupleRef("R", 1)
        assert r.value(ref) == 9

    def test_append_domain_enforced(self):
        r = Relation("R", [1])
        with pytest.raises(RelationError):
            r.append("string")

    def test_append_to_empty_sets_domain(self):
        r = Relation("R")
        r.append({1})
        assert r.domain == Domain.SET

    def test_items_iteration(self):
        r = Relation("R", [10, 20])
        items = list(r.items())
        assert items[0] == (TupleRef("R", 0), 10)
        assert items[1] == (TupleRef("R", 1), 20)

    def test_distinct_values(self):
        r = Relation("R", [3, 1, 3, 2, 1])
        assert r.distinct_values() == [3, 1, 2]

    def test_tuple_ref_repr(self):
        assert repr(TupleRef("R", 3)) == "R[3]"

    def test_tuple_refs_order(self):
        assert TupleRef("R", 0) < TupleRef("R", 1)


class TestCatalog:
    def test_create_and_get(self):
        from repro.relations.catalog import Catalog

        cat = Catalog()
        cat.create("R", [1, 2])
        assert cat.get("R").values == [1, 2]
        assert "R" in cat
        assert len(cat) == 1

    def test_duplicate_rejected(self):
        from repro.relations.catalog import Catalog

        cat = Catalog()
        cat.create("R")
        with pytest.raises(RelationError):
            cat.create("R")
        with pytest.raises(RelationError):
            cat.register(Relation("R"))

    def test_drop(self):
        from repro.relations.catalog import Catalog

        cat = Catalog()
        cat.create("R")
        cat.drop("R")
        assert "R" not in cat
        with pytest.raises(RelationError):
            cat.drop("R")

    def test_missing_get(self):
        from repro.relations.catalog import Catalog

        with pytest.raises(RelationError):
            Catalog().get("ghost")

    def test_names_sorted(self):
        from repro.relations.catalog import Catalog

        cat = Catalog()
        cat.create("S")
        cat.create("R")
        assert cat.names() == ["R", "S"]
