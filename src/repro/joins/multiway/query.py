"""Conjunctive multiway join queries: atoms over shared variables.

The binary layer joins two single-column :class:`~repro.relations.relation.Relation`
objects under a predicate.  Worst-case-optimal joins need the full conjunctive
shape ``Q(x1..xk) :- R1(vars1), R2(vars2), ...`` where every atom is an n-ary
table and variables are shared *by name* across atoms.  :class:`Atom` and
:class:`MultiwayQuery` carry exactly that — no predicate object, equality on
shared variables is implied by the hypergraph structure.

All multiway algorithms in this package use **set semantics**: duplicate rows
within an atom are collapsed, and the output is the set of distinct variable
bindings.  That is the setting in which the AGM bound and worst-case
optimality statements hold.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from repro.errors import PredicateError

Row = tuple[Any, ...]


def row_projector(positions: list[int]) -> Callable[[Row], Row]:
    """A C-level function from a row to the tuple of its values at
    ``positions``.

    ``itemgetter`` of one index would return the bare value and of none
    would raise, so those two project through a slice.
    """
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


@dataclass(frozen=True)
class Atom:
    """One n-ary relation occurrence: a name, a variable tuple, and rows.

    Variables within an atom must be distinct (self-joins on a column are
    expressed by repeating the *atom* with renamed variables, as usual in
    the conjunctive-query literature).  Rows are stored as given; algorithms
    treat them as a set.
    """

    name: str
    variables: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise PredicateError("atom needs a non-empty name")
        if not self.variables:
            raise PredicateError(f"atom {self.name!r} needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise PredicateError(
                f"atom {self.name!r} repeats a variable: {self.variables}"
            )
        arity = len(self.variables)
        for row in self.rows:
            if len(row) != arity:
                raise PredicateError(
                    f"atom {self.name!r} has arity {arity} but row {row!r} "
                    f"has {len(row)} columns"
                )

    @property
    def arity(self) -> int:
        return len(self.variables)

    def distinct_rows(self) -> set[Row]:
        """The atom's rows under set semantics."""
        return set(self.rows)

    def describe(self) -> str:
        return f"{self.name}({', '.join(self.variables)})"


@dataclass(frozen=True)
class MultiwayQuery:
    """A full conjunctive query: a tuple of atoms sharing variables by name."""

    atoms: tuple[Atom, ...]
    _variables: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise PredicateError("multiway query needs at least one atom")
        names = [atom.name for atom in self.atoms]
        if len(set(names)) != len(names):
            raise PredicateError(f"atom names must be distinct, got {names}")
        seen: list[str] = []
        for atom in self.atoms:
            for var in atom.variables:
                if var not in seen:
                    seen.append(var)
        object.__setattr__(self, "_variables", tuple(seen))

    def variables(self) -> tuple[str, ...]:
        """All variables, in first-appearance order across the atom list."""
        return self._variables

    def atoms_with(self, variable: str) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if variable in a.variables)

    def total_rows(self) -> int:
        return sum(len(atom.rows) for atom in self.atoms)

    def describe(self) -> str:
        return " ⋈ ".join(atom.describe() for atom in self.atoms)

    def validate_order(self, order: tuple[str, ...]) -> tuple[str, ...]:
        """Check that ``order`` is a permutation of the query's variables."""
        if sorted(order) != sorted(self._variables):
            raise PredicateError(
                f"variable order {order} is not a permutation of "
                f"{self._variables}"
            )
        return tuple(order)


def choose_variable_order(query: MultiwayQuery) -> tuple[str, ...]:
    """Pick a variable order for LFTJ / generic join.

    Heuristic: order variables by how many atoms contain them (most-shared
    first — those are the most constrained), breaking ties by first
    appearance.  For the cyclic benchmark queries (triangle, 4-cycle,
    clique) every variable has equal degree, so this degrades gracefully to
    first-appearance order.
    """
    first_seen = {v: i for i, v in enumerate(query.variables())}
    return tuple(
        sorted(
            query.variables(),
            key=lambda v: (-len(query.atoms_with(v)), first_seen[v]),
        )
    )


def naive_multiway(query: MultiwayQuery) -> set[Row]:
    """Brute-force reference: backtracking scan, no indexes, no tries.

    Exists purely as an independent oracle for tests; exponential scans,
    do not use on anything but tiny instances.
    """
    order = query.variables()
    results: set[Row] = set()

    def extend(binding: dict[str, Any], remaining: tuple[Atom, ...]) -> None:
        if not remaining:
            results.add(tuple(binding[v] for v in order))
            return
        atom, rest = remaining[0], remaining[1:]
        for row in atom.distinct_rows():
            candidate = dict(binding)
            ok = True
            for var, value in zip(atom.variables, row):
                if var in candidate and candidate[var] != value:
                    ok = False
                    break
                candidate[var] = value
            if ok:
                extend(candidate, rest)

    extend({}, query.atoms)
    return results
