"""The AGM bound: fractional edge covers solved exactly over rationals.

Atserias–Grohe–Marx: for a join query with hypergraph ``H`` and relation
sizes ``N_e``, the output size is at most ``prod_e N_e^{w_e}`` for any
fractional edge cover ``w`` (``sum_{e ∋ v} w_e >= 1`` for every variable
``v``, ``w >= 0``), and the best bound comes from minimizing
``sum_e w_e · log2(N_e)``.  Worst-case-optimal algorithms run in time
``~O(AGM(Q))``; the binary cascade does not.

The LP here is tiny (atoms are the variables: 3 for a triangle, 6 for a
4-clique), so instead of pulling in an LP solver we enumerate basic
solutions exactly with :class:`fractions.Fraction` Gaussian elimination —
the optimum of a pointed LP sits at a vertex, and every vertex is the
solution of some square subsystem of tight constraints.  The constraints
depend only on the query's hypergraph, so the vertices are enumerated
once per hypergraph shape and each query only scores them against its
sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from repro.errors import PredicateError
from repro.joins.multiway.query import MultiwayQuery


def fractional_edge_cover(query: MultiwayQuery) -> dict[str, Fraction]:
    """The minimum-cost fractional edge cover, as exact rational weights.

    Cost of atom ``e`` is ``log2(N_e)`` (clamped to sizes >= 1 — an atom
    with a single row costs nothing to pick).  Raises only on malformed
    queries; the LP itself is always feasible (all-ones is a cover).
    """
    return _cheapest_cover(query, [len(atom.distinct_rows()) for atom in query.atoms])


def agm_bound(query: MultiwayQuery) -> float:
    """The AGM worst-case output bound ``prod_e N_e^{w_e}``.

    Sizes are distinct-row counts (the multiway layer runs set semantics).
    Any empty atom forces an empty join, so the bound is 0.0.
    """
    sizes = [len(atom.distinct_rows()) for atom in query.atoms]
    if not all(sizes):
        return 0.0
    cover = _cheapest_cover(query, sizes)
    return math.prod(size ** float(w) for size, w in zip(sizes, cover.values()))


def _cheapest_cover(query: MultiwayQuery, sizes: list[int]) -> dict[str, Fraction]:
    """Score the LP vertices of ``query``'s shape against its ``sizes``.

    Vertices come in subset-enumeration order and a later vertex wins
    only if it is cheaper by more than ``1e-12``, so ties go to the first.
    """
    costs = [math.log2(max(1, size)) for size in sizes]
    shape = tuple(atom.variables for atom in query.atoms)
    best: tuple[Fraction, ...] | None = None
    best_cost = math.inf
    for weights, floats in _cover_vertices(shape, query.variables()):
        cost = sum(w * c for w, c in zip(floats, costs))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = weights
    if best is None:  # pragma: no cover - all-ones is always a cover
        raise PredicateError("fractional edge cover LP found no vertex")
    return {atom.name: w for atom, w in zip(query.atoms, best)}


@lru_cache(maxsize=64)
def _cover_vertices(
    shape: tuple[tuple[str, ...], ...], variables: tuple[str, ...]
) -> tuple[tuple[tuple[Fraction, ...], tuple[float, ...]], ...]:
    """Every feasible vertex of the cover LP of a hypergraph ``shape``
    (each atom's variable tuple), with its weights as floats.

    The constraints depend on the shape alone, so a query shape pays for
    the Gaussian eliminations once.  Vertices are listed in the order of
    the first constraint subset that yields them; a repeat scores the
    same as its first copy and could never win, so it is dropped.
    """
    n = len(shape)
    # Candidate tight constraints, each a row (a, b) meaning a·w = b:
    #   per variable v:  sum_{e ∋ v} w_e = 1
    #   per atom e:      w_e = 0
    rows: list[tuple[list[Fraction], Fraction]] = []
    for v in variables:
        coeff = [Fraction(1) if v in atom else Fraction(0) for atom in shape]
        rows.append((coeff, Fraction(1)))
    for e in range(n):
        coeff = [Fraction(0)] * n
        coeff[e] = Fraction(1)
        rows.append((coeff, Fraction(0)))

    vertices: dict[tuple[Fraction, ...], tuple[float, ...]] = {}
    for subset in combinations(range(len(rows)), n):
        solution = _solve_exact(
            [rows[i][0] for i in subset], [rows[i][1] for i in subset]
        )
        if solution is None or any(w < 0 for w in solution):
            continue
        if not all(
            sum(w for w, atom in zip(solution, shape) if v in atom) >= 1
            for v in variables
        ):
            continue
        vertices.setdefault(tuple(solution), tuple(float(w) for w in solution))
    return tuple(vertices.items())


def _solve_exact(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve a square rational system by Gaussian elimination; None if singular."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]
