"""Property-based tests (hypothesis) on the core invariants.

Strategies generate small random bipartite graphs; each property is one of
the paper's universally-quantified statements, checked on every draw with
the exact solver as ground truth where needed.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import betti_number, component_vertex_sets
from repro.graphs.hamiltonian import has_hamiltonian_path
from repro.graphs.line_graph import is_claw_free, line_graph
from repro.core.costs import effective_cost_bounds
from repro.core.lower_bounds import effective_cost_lower_bound
from repro.core.scheme import PebblingScheme
from repro.core.solvers.exact import solve_exact
from repro.core.solvers.registry import solve
from repro.core.tsp import scheme_to_tour, tour_cost


@st.composite
def bipartite_graphs(draw, max_left=4, max_right=4, min_edges=1):
    """A random small bipartite graph with at least ``min_edges`` edges."""
    n_left = draw(st.integers(1, max_left))
    n_right = draw(st.integers(1, max_right))
    cells = [(i, j) for i in range(n_left) for j in range(n_right)]
    chosen = draw(
        st.lists(st.sampled_from(cells), min_size=min_edges, max_size=len(cells))
    )
    graph = BipartiteGraph(
        left=[f"u{i}" for i in range(n_left)],
        right=[f"v{j}" for j in range(n_right)],
    )
    for i, j in set(chosen):
        graph.add_edge(f"u{i}", f"v{j}")
    return graph.without_isolated_vertices()


COMMON = settings(max_examples=60, deadline=None)


@COMMON
@given(bipartite_graphs())
def test_lemma_2_3_bounds(graph):
    """m <= pi(G) <= 2m − 1 on every instance."""
    m = graph.num_edges
    pi = solve_exact(graph).effective_cost
    assert m <= pi <= 2 * m - 1


@COMMON
@given(bipartite_graphs())
def test_theorem_3_1_upper_bound(graph):
    """pi(G) <= sum over components of floor(1.25 m_c)."""
    pi = solve_exact(graph).effective_cost
    _, upper = effective_cost_bounds(graph)
    assert pi <= upper


@COMMON
@given(bipartite_graphs())
def test_dfs_approx_guarantee(graph):
    """The Theorem 3.1 algorithm never exceeds its certificate."""
    result = solve(graph, "dfs")
    result.scheme.validate(graph)
    assert result.effective_cost <= effective_cost_bounds(graph)[1]


@COMMON
@given(bipartite_graphs())
def test_line_graph_claw_free(graph):
    """Line graphs of join graphs are always claw-free (Harary)."""
    assert is_claw_free(line_graph(graph))


@COMMON
@given(bipartite_graphs())
def test_deficiency_lower_bound_sound(graph):
    """The generalized Theorem 3.3 bound never exceeds the optimum."""
    assert effective_cost_lower_bound(graph) <= solve_exact(graph).effective_cost


@COMMON
@given(bipartite_graphs())
def test_proposition_2_1(graph):
    """On connected graphs: pi = m iff L(G) is traceable."""
    if len(component_vertex_sets(graph)) != 1:
        return
    pi = solve_exact(graph).effective_cost
    assert (pi == graph.num_edges) == has_hamiltonian_path(line_graph(graph))


@COMMON
@given(bipartite_graphs())
def test_proposition_2_2(graph):
    """Optimal scheme's tour cost equals pi + beta0 − 2 (Prop 2.2 with
    components)."""
    result = solve_exact(graph)
    tour = scheme_to_tour(graph, result.scheme)
    beta = betti_number(graph)
    assert tour_cost(tour) == result.effective_cost + beta - 2


@COMMON
@given(bipartite_graphs())
def test_greedy_schemes_always_valid(graph):
    """Every heuristic output is a valid scheme within the naive bounds."""
    result = solve(graph, "greedy")
    result.scheme.validate(graph)
    m = graph.num_edges
    assert m <= result.effective_cost <= 2 * m - 1


@COMMON
@given(bipartite_graphs())
def test_scheme_cost_equals_game_replay(graph):
    """Scheme cost accounting agrees with the move-by-move game."""
    from repro.core.game import PebbleGame

    scheme = solve_exact(graph).scheme
    game = PebbleGame(graph)
    assert game.replay(scheme) == scheme.cost()
    assert game.is_won()


@COMMON
@given(bipartite_graphs(), bipartite_graphs())
def test_lemma_2_2_additivity(first, second):
    """pi(G ⊎ H) = pi(G) + pi(H)."""
    from repro.graphs.components import disjoint_union

    union = disjoint_union(first, second)
    assert (
        solve_exact(union).effective_cost
        == solve_exact(first).effective_cost + solve_exact(second).effective_cost
    )


@COMMON
@given(bipartite_graphs())
def test_edge_orders_are_permutations(graph):
    """Solver outputs visit each edge exactly once."""
    scheme = solve_exact(graph).scheme
    seen = {frozenset(c) for c in scheme.configurations}
    assert seen == {frozenset(e) for e in graph.edges()}
    assert len(scheme) == graph.num_edges
