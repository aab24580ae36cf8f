"""The shape-memoized AGM bound against the per-query reference.

The library enumerates the cover LP's vertices once per hypergraph shape
and scores them per query; :mod:`tests.joins.agm_reference` rebuilds and
solves the LP on every call.  Covers (exact fractions) and bounds must be
identical, across sizes, single-row atoms (cost 0) and cost ties.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.joins.multiway import Atom, MultiwayQuery, agm_bound, fractional_edge_cover
from repro.workloads.multiway import clique_query, four_cycle_query, triangle_query
from tests.joins.agm_reference import (
    reference_agm_bound,
    reference_fractional_edge_cover,
)


def _rows(rng: random.Random, count: int, arity: int, universe: int) -> tuple:
    return tuple(
        tuple(rng.randrange(universe) for _ in range(arity)) for _ in range(count)
    )


def _query(shape, sizes, seed: int) -> MultiwayQuery:
    rng = random.Random(seed)
    return MultiwayQuery(
        atoms=tuple(
            Atom(f"R{i}", variables, _rows(rng, size, len(variables), 1000))
            for i, (variables, size) in enumerate(zip(shape, sizes))
        )
    )


TRIANGLE = (("a", "b"), ("b", "c"), ("c", "a"))
FOUR_CYCLE = (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
CLIQUE_4 = tuple(combinations("abcd", 2))
PATH = (("a", "b"), ("b", "c"), ("c", "d"))
STAR = (("h", "x"), ("h", "y"), ("h", "z"))
SHAPES = {
    "triangle": TRIANGLE,
    "four-cycle": FOUR_CYCLE,
    "4-clique": CLIQUE_4,
    "path": PATH,
    "star": STAR,
}


def _sized_cases():
    rng = random.Random(25)
    for name, shape in SHAPES.items():
        # Equal sizes tie many vertices; single-row atoms cost nothing.
        yield name, shape, [8] * len(shape)
        yield name, shape, [1] * len(shape)
        yield name, shape, [1] + [50] * (len(shape) - 1)
        for _ in range(6):
            yield name, shape, [rng.choice((1, 2, 3, 10, 40, 200)) for _ in shape]


@pytest.mark.parametrize(
    "name,shape,sizes",
    list(_sized_cases()),
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_cover_and_bound_match_reference(name, shape, sizes):
    query = _query(shape, sizes, seed=sum(sizes))
    cover = fractional_edge_cover(query)
    expected = reference_fractional_edge_cover(query)
    assert cover == expected
    assert list(cover) == list(expected)
    assert agm_bound(query) == reference_agm_bound(query)


@pytest.mark.parametrize("size", [1, 5, 40, 300])
def test_workload_queries_match_reference(size):
    queries = [
        triangle_query(size, skew="worst-case"),
        triangle_query(size, skew="uniform", seed=size),
        four_cycle_query(size, skew="uniform", seed=size),
        clique_query(4, size, seed=size),
    ]
    for query in queries:
        assert fractional_edge_cover(query) == reference_fractional_edge_cover(query)
        assert agm_bound(query) == reference_agm_bound(query)


def test_empty_atom_bound_is_zero():
    query = _query(TRIANGLE, [5, 0, 5], seed=1)
    assert agm_bound(query) == reference_agm_bound(query) == 0.0


def test_shapes_with_renamed_atoms_share_vertices():
    # The memo is keyed on the hypergraph, not on atom names or rows.
    first = _query(FOUR_CYCLE, [3, 9, 27, 81], seed=2)
    renamed = MultiwayQuery(
        atoms=tuple(
            Atom(f"X{i}", atom.variables, atom.rows)
            for i, atom in enumerate(first.atoms)
        )
    )
    assert list(fractional_edge_cover(renamed).values()) == list(
        fractional_edge_cover(first).values()
    )
    assert agm_bound(renamed) == agm_bound(first)
