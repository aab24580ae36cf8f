"""E-P2.1 / E-P2.2: the TSP correspondence (Propositions 2.1 and 2.2).

Regenerates: the perfect-pebbling-vs-Hamiltonicity table and the
tour-cost identity.
"""

from repro.analysis.experiments import perfect_iff_hamiltonian_experiment
from repro.analysis.report import Table
from repro.graphs.generators import random_connected_bipartite
from repro.core.solvers.exact import solve_exact
from repro.core.tsp import scheme_to_tour, tour_cost


def test_perfect_iff_hamiltonian_table(emit):
    table = perfect_iff_hamiltonian_experiment(10)
    emit("E-P2.1_perfect_iff_hamiltonian", table)
    assert all(row[-1] == "True" for row in table._rows)


def test_tour_cost_identity_table(emit):
    graphs = [
        random_connected_bipartite(4, 4, extra_edges=s % 4, seed=200 + s)
        for s in range(8)
    ]

    table = Table(
        ["case", "pi", "tour_cost", "identity(pi-1)"],
        title="E-P2.2: optimal tour cost = pi(G) - 1 (Prop 2.2)",
    )
    for index, g in enumerate(graphs):
        result = solve_exact(g)
        cost = tour_cost(scheme_to_tour(g, result.scheme))
        table.add_row(
            [index, result.effective_cost, cost, cost == result.effective_cost - 1]
        )
    emit("E-P2.2_tour_cost", table)
    assert all(row[-1] == "True" for row in table._rows)
