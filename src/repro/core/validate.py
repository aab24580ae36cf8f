"""Machine checks of the paper's §2–§3 statements on concrete instances.

Each function checks one lemma/proposition on a given graph and returns a
small report dict (used by tests, benchmarks, and EXPERIMENTS.md
generation).  A failed check raises :class:`AssertionError` with a
diagnostic — these functions are the "executable theorems" of the
reproduction.
"""

from __future__ import annotations

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import betti_number, decompose, disjoint_union
from repro.graphs.hamiltonian import has_hamiltonian_path
from repro.graphs.line_graph import is_claw_free, line_graph
from repro.graphs.simple import Graph
from repro.core.costs import effective_cost_bounds, naive_cost_bounds
from repro.core.solvers.dfs_approx import solve_dfs_approx
from repro.core.solvers.exact import solve_exact
from repro.core.tsp import tour_cost, scheme_to_tour

AnyGraph = Graph | BipartiteGraph


def check_cost_bounds(graph: AnyGraph) -> dict:
    """Lemma 2.3 + Theorem 3.1: ``m ≤ π(G) ≤ min(2m − 1, Σ ⌊1.25 m_c⌋)``."""
    parts = decompose(graph)
    if parts.betti == 0:
        return {"m": 0, "pi": 0}
    pi = solve_exact(parts).effective_cost
    lower, tight_upper = effective_cost_bounds(parts)
    _, naive_upper = naive_cost_bounds(graph)
    assert lower <= pi, f"pi={pi} below lower bound m={lower}"
    assert pi <= tight_upper, f"pi={pi} above 1.25 bound {tight_upper}"
    assert pi <= naive_upper, f"pi={pi} above naive bound {naive_upper}"
    return {"m": graph.num_edges, "pi": pi, "upper": tight_upper}


def check_additivity(first: BipartiteGraph, second: BipartiteGraph) -> dict:
    """Lemma 2.2: ``π(G ⊎ H) = π(G) + π(H)`` (and likewise for π̂)."""
    union = disjoint_union(first, second)
    pi_first = solve_exact(first).effective_cost
    pi_second = solve_exact(second).effective_cost
    pi_union = solve_exact(union).effective_cost
    assert pi_union == pi_first + pi_second, (
        f"additivity violated: {pi_union} != {pi_first} + {pi_second}"
    )
    raw_first = pi_first + betti_number(first)
    raw_second = pi_second + betti_number(second)
    raw_union = pi_union + betti_number(union)
    assert raw_union == raw_first + raw_second
    return {"pi_G": pi_first, "pi_H": pi_second, "pi_union": pi_union}


def check_perfect_iff_hamiltonian(graph: AnyGraph) -> dict:
    """Proposition 2.1 on a *connected* graph: ``π(G) = m`` iff ``L(G)``
    has a Hamiltonian path."""
    parts = decompose(graph)
    assert parts.betti == 1, "requires connected input"
    m = graph.num_edges
    pi = solve_exact(parts).effective_cost
    line = line_graph(graph)
    hamiltonian = has_hamiltonian_path(line)
    assert (pi == m) == hamiltonian, (
        f"Prop 2.1 violated: pi={pi}, m={m}, ham={hamiltonian}"
    )
    return {"m": m, "pi": pi, "hamiltonian": hamiltonian}


def check_tsp_correspondence(graph: AnyGraph) -> dict:
    """Proposition 2.2 on a connected graph: the optimal scheme's tour
    costs ``π(G) − 1``."""
    parts = decompose(graph)
    assert parts.betti == 1, "requires connected input"
    result = solve_exact(parts)
    tour = scheme_to_tour(graph, result.scheme)
    assert tour_cost(tour) == result.effective_cost - 1, (
        f"Prop 2.2 violated: tour={tour_cost(tour)}, pi={result.effective_cost}"
    )
    return {"pi": result.effective_cost, "tour_cost": tour_cost(tour)}


def check_line_graph_claw_free(graph: AnyGraph) -> dict:
    """The structural fact behind Theorem 3.1: ``L(G)`` is claw-free."""
    line = line_graph(graph)
    assert is_claw_free(line), "line graph contains an induced claw"
    return {"line_nodes": line.num_vertices}


def check_dfs_guarantee(graph: AnyGraph) -> dict:
    """Theorem 3.1: the DFS algorithm's scheme costs at most
    ``Σ_c (m_c + ⌊m_c/4⌋) ≤ 1.25 m``."""
    if graph.num_edges == 0:
        return {"m": 0}
    result = solve_dfs_approx(graph)
    result.scheme.validate(graph)
    assert result.effective_cost <= result.guarantee, (
        f"DFS cost {result.effective_cost} exceeds guarantee {result.guarantee}"
    )
    return {
        "m": graph.num_edges,
        "pi_dfs": result.effective_cost,
        "guarantee": result.guarantee,
    }


def check_equijoin_perfect(graph: BipartiteGraph) -> dict:
    """Theorem 3.2: a union-of-bicliques graph has ``π(G) = m``, achieved
    by the linear-time solver."""
    from repro.core.solvers.equijoin import solve_equijoin

    scheme = solve_equijoin(graph)
    scheme.validate(graph)
    pi = scheme.effective_cost(graph)
    assert pi == graph.num_edges, f"equijoin scheme not perfect: {pi}"
    return {"m": graph.num_edges, "pi": pi}
