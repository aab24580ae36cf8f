"""Reference AGM computation kept as a test oracle.

This is the per-query form of :mod:`repro.joins.multiway.bounds`: every
call rebuilds the LP's constraint rows, solves all square subsystems by
exact Gaussian elimination, and scores each feasible vertex against the
query's sizes.  The library enumerates the vertices once per hypergraph
shape; its covers and bounds must equal these exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from repro.joins.multiway.query import MultiwayQuery


def reference_fractional_edge_cover(query: MultiwayQuery) -> dict[str, Fraction]:
    """The minimum-cost fractional edge cover, as exact rational weights.

    Cost of atom ``e`` is ``log2(N_e)`` (clamped to sizes >= 1 — an atom
    with a single row costs nothing to pick).  Raises only on malformed
    queries; the LP itself is always feasible (all-ones is a cover).
    """
    atoms = query.atoms
    variables = query.variables()
    n = len(atoms)
    sizes = [max(1, len(atom.distinct_rows())) for atom in atoms]
    costs = [math.log2(size) for size in sizes]

    # Candidate tight constraints, each a row (a, b) meaning a·w = b:
    #   per variable v:  sum_{e ∋ v} w_e = 1
    #   per atom e:      w_e = 0
    rows: list[tuple[list[Fraction], Fraction]] = []
    for v in variables:
        coeff = [
            Fraction(1) if v in atom.variables else Fraction(0) for atom in atoms
        ]
        rows.append((coeff, Fraction(1)))
    for e in range(n):
        coeff = [Fraction(0)] * n
        coeff[e] = Fraction(1)
        rows.append((coeff, Fraction(0)))

    best: list[Fraction] | None = None
    best_cost = math.inf
    for subset in combinations(range(len(rows)), n):
        matrix = [rows[i][0][:] for i in subset]
        rhs = [rows[i][1] for i in subset]
        solution = _solve_exact(matrix, rhs)
        if solution is None:
            continue
        if any(w < 0 for w in solution):
            continue
        if not all(
            sum(w for w, atom in zip(solution, atoms) if v in atom.variables) >= 1
            for v in variables
        ):
            continue
        cost = sum(float(w) * c for w, c in zip(solution, costs))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = solution
    assert best is not None, "all-ones is always a cover"
    return {atom.name: w for atom, w in zip(atoms, best)}


def reference_agm_bound(query: MultiwayQuery) -> float:
    """The AGM worst-case output bound ``prod_e N_e^{w_e}``.

    Sizes are distinct-row counts (the multiway layer runs set semantics).
    Any empty atom forces an empty join, so the bound is 0.0.
    """
    if any(not atom.distinct_rows() for atom in query.atoms):
        return 0.0
    cover = reference_fractional_edge_cover(query)
    sizes = {atom.name: len(atom.distinct_rows()) for atom in query.atoms}
    return math.prod(sizes[name] ** float(w) for name, w in cover.items())


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
