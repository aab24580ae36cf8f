"""E-L2.1 / E-L2.2: cost bounds and additivity (Lemmas 2.1–2.3).

Regenerates: the bounds table (m ≤ π ≤ 1.25m on random instances) and an
additivity check.
"""

from repro.analysis.experiments import bounds_experiment
from repro.analysis.report import Table
from repro.graphs.components import disjoint_union
from repro.graphs.generators import random_connected_bipartite
from repro.core.families import worst_case_family
from repro.core.solvers.exact import solve_exact


def test_bounds_table(emit):
    table = bounds_experiment(10)
    emit("E-L2.1_bounds", table)
    assert len(table) == 10


def test_additivity_table(emit):
    pairs = [
        (random_connected_bipartite(3, 3, extra_edges=1, seed=s), worst_case_family(3))
        for s in range(4)
    ]

    table = Table(
        ["case", "pi_G", "pi_H", "pi_union", "additive"],
        title="E-L2.2: additivity of pi over disjoint union (Lemma 2.2)",
    )
    for index, (g, h) in enumerate(pairs):
        pi_g = solve_exact(g).effective_cost
        pi_h = solve_exact(h).effective_cost
        pi_u = solve_exact(disjoint_union(g, h)).effective_cost
        table.add_row([index, pi_g, pi_h, pi_u, pi_u == pi_g + pi_h])
    emit("E-L2.2_additivity", table)
    assert all(row[-1] == "True" for row in table._rows)
