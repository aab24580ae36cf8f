"""Single-column relations with multiset semantics (paper §2).

A :class:`Relation` is a named bag of attribute values.  Each physical tuple
gets a :class:`TupleRef` — a stable identifier — because the pebbling model
needs one join-graph vertex *per tuple*, including duplicates ("the
relations are allowed to be multi-sets").
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Any, NamedTuple

from repro.errors import RelationError
from repro.relations.domains import Domain, common_domain


class TupleRef(NamedTuple):
    """A stable reference to one physical tuple: relation name + ordinal.

    These are the vertex labels of join graphs built by
    :func:`repro.joins.join_graph.build_join_graph`.  A named tuple, so
    hashing and comparison run in C: the hash is ``hash((relation,
    ordinal))``, refs order by relation then ordinal, and they are
    immutable and picklable.  Like any tuple, a ref compares equal to the
    plain tuple ``(relation, ordinal)`` (and to any other named tuple with
    the same fields), so do not mix refs and bare pairs as labels of one
    graph.
    """

    relation: str
    ordinal: int

    def __repr__(self) -> str:
        return f"{self.relation}[{self.ordinal}]"


_new_ref = partial(tuple.__new__, TupleRef)
_relation_of = attrgetter("relation")
_ordinal_of = attrgetter("ordinal")


def tuple_refs(relation: str, ordinals: Iterable[int]) -> list[TupleRef]:
    """``TupleRef(relation, o)`` for each of ``ordinals``, in order.

    ``tuple.__new__`` builds each ref in C; calling :class:`TupleRef`
    would run its generated Python ``__new__`` once per ref.
    """
    return list(map(_new_ref, zip(repeat(relation), ordinals)))


class Relation:
    """A named single-column relation (a multiset of values).

    Values are stored in insertion order; ``ordinal`` positions are stable
    for the life of the relation.  The column's :class:`Domain` is inferred
    at construction and enforced on append.

    Example
    -------
    >>> r = Relation("R", [1, 2, 2, 7])
    >>> len(r)
    4
    >>> r.domain
    <Domain.NUMERIC: 'numeric'>
    >>> r.value(TupleRef("R", 2))
    2
    """

    def __init__(self, name: str, values: Iterable[Any] = ()) -> None:
        if not name or not isinstance(name, str):
            raise RelationError("relation name must be a non-empty string")
        self.name = name
        self._values: list[Any] = list(values)
        self._domain = common_domain(self._values)

    # ------------------------------------------------------------------
    @property
    def domain(self) -> Domain:
        """The inferred domain of the single attribute column."""
        return self._domain

    @property
    def values(self) -> list[Any]:
        """A copy of the column values in tuple order."""
        return list(self._values)

    def append(self, value: Any) -> TupleRef:
        """Add a tuple; returns its :class:`TupleRef`.

        Raises :class:`~repro.errors.RelationError` if the value's domain
        conflicts with the column's existing domain.
        """
        from repro.relations.domains import infer_domain

        if self._values:
            incoming = infer_domain(value)
            if incoming != self._domain:
                raise RelationError(
                    f"value domain {incoming.value} conflicts with column "
                    f"domain {self._domain.value}"
                )
        else:
            self._domain = common_domain([value])
        self._values.append(value)
        return TupleRef(self.name, len(self._values) - 1)

    def refs(self) -> list[TupleRef]:
        """One :class:`TupleRef` per physical tuple, in order."""
        return tuple_refs(self.name, range(len(self._values)))

    def value(self, ref: TupleRef) -> Any:
        """The attribute value of the referenced tuple."""
        if ref.relation != self.name:
            raise RelationError(
                f"ref {ref!r} belongs to relation {ref.relation!r}, "
                f"not {self.name!r}"
            )
        if not 0 <= ref.ordinal < len(self._values):
            raise RelationError(f"ref {ref!r} is out of range")
        return self._values[ref.ordinal]

    def values_of(self, refs: Iterable[TupleRef]) -> list[Any]:
        """The values of ``refs``, in order: :meth:`value` over many refs.

        The checks of :meth:`value` run once for the whole batch (every
        ref names this relation, every ordinal is in range); when the
        batch fails them, each ref goes through :meth:`value`, so the
        first bad ref raises the same :class:`RelationError`.
        """
        refs = list(refs)
        if not refs:
            return []
        ordinals = list(map(_ordinal_of, refs))
        if set(map(_relation_of, refs)) == {self.name} and (
            0 <= min(ordinals) and max(ordinals) < len(self._values)
        ):
            return list(map(self._values.__getitem__, ordinals))
        return [self.value(ref) for ref in refs]

    def items(self) -> Iterator[tuple[TupleRef, Any]]:
        """Iterate ``(ref, value)`` pairs in tuple order."""
        return zip(self.refs(), self._values)

    def distinct_values(self) -> list[Any]:
        """Distinct values, first-occurrence order (hashable domains only)."""
        seen: set = set()
        out = []
        for v in self._values:
            key = v
            if key not in seen:
                seen.add(key)
                out.append(v)
        return out

    def multiplicity(self, value: Any) -> int:
        """The number of tuples carrying ``value``."""
        return sum(1 for v in self._values if v == value)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, n={len(self._values)}, domain={self._domain.value})"
