"""E-T4.2: NP-completeness exhibited as exponential exact-search scaling.

Regenerates: the hard-vs-easy effort table — exact search-node counts on
tree-plus-chords instances grow explosively while the equijoin solver
stays linear.
"""

from repro.analysis.experiments import hardness_scaling_experiment
from repro.errors import InstanceTooLargeError
from repro.graphs.generators import random_connected_bipartite
from repro.core.solvers.exact import solve_exact


def test_hardness_table(emit):
    table = hardness_scaling_experiment(
        sizes=(6, 7, 8, 9, 10), node_budget=1_500_000
    )
    emit("E-T4.2_hardness_scaling", table)
    # A budget-stopped search renders as ">N"; strip the marker for the
    # shape check (the budget is a lower bound on the true effort there).
    nodes = [int(row[2].lstrip(">")) for row in table._rows]
    # Shape check: the largest instance needs orders of magnitude more
    # search effort than the smallest.
    assert max(nodes) > 100 * max(1, min(nodes))


def test_hard_instance_solve():
    g = random_connected_bipartite(9, 9, extra_edges=2, seed=1)
    try:
        nodes = solve_exact(g, node_budget=1_500_000).search_nodes
    except InstanceTooLargeError:
        nodes = 1_500_000
    assert nodes > 0
