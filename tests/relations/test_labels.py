"""The vertex-label contract of TupleRef and PageRef.

Both are named tuples: they hash and compare in C, exactly as the tuple of
their fields, so set and dict orders of join and page graphs depend only
on the fields.
"""

import pickle

import pytest

from repro.relations.relation import Relation, TupleRef
from repro.relations.storage import PageRef

LABELS = [
    pytest.param(TupleRef, "R[3]", id="TupleRef"),
    pytest.param(PageRef, "R:p3", id="PageRef"),
]


@pytest.mark.parametrize("label, text", LABELS)
class TestLabelContract:
    def test_hash_is_the_field_tuple_hash(self, label, text):
        assert hash(label("R", 3)) == hash(("R", 3))
        assert len({label("R", 3), label("R", 3)}) == 1

    def test_repr(self, label, text):
        assert repr(label("R", 3)) == text
        assert str(label("R", 3)) == text

    def test_orders_by_relation_then_number(self, label, text):
        refs = [label("S", 0), label("R", 10), label("R", 2)]
        assert sorted(refs) == [label("R", 2), label("R", 10), label("S", 0)]
        assert label("R", 0) < label("R", 1) < label("S", 0)

    def test_pickle_round_trip(self, label, text):
        ref = label("R", 3)
        back = pickle.loads(pickle.dumps(ref))
        assert back == ref and type(back) is label and repr(back) == text

    def test_immutable(self, label, text):
        ref = label("R", 3)
        with pytest.raises(AttributeError):
            ref.relation = "S"
        with pytest.raises(AttributeError):
            ref.extra = 1

    def test_equal_to_the_plain_field_tuple(self, label, text):
        # The one difference from a class of its own: a label equals the
        # plain tuple of its fields.
        assert label("R", 3) == ("R", 3)
        assert tuple(label("R", 3)) == ("R", 3)


def test_fields_keep_their_names():
    assert TupleRef("R", 3).ordinal == 3
    assert PageRef("R", 3).page_number == 3
    assert TupleRef("R", 3).relation == PageRef("R", 3).relation == "R"


def test_relation_refs_are_tuple_refs():
    refs = Relation("R", [5, 6]).refs()
    assert refs == [TupleRef("R", 0), TupleRef("R", 1)]
    assert all(type(ref) is TupleRef for ref in refs)
