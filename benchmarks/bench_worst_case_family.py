"""E-T3.3 / Figure 1: the worst-case family G_n.

Regenerates: the G_n table (exact optimum vs the 1.25m − 1 formula, the
deficiency lower bound, and the explicit optimal tour) plus a structural
verification of Fig 1(b)'s corona line graph, and π(G_12) = 29.
"""

from repro.analysis.experiments import worst_case_experiment
from repro.analysis.report import Table
from repro.graphs.line_graph import line_graph
from repro.core.families import (
    corona_line_graph,
    is_corona_of_clique,
    worst_case_family,
)
from repro.core.solvers.exact import solve_exact


def test_worst_case_table(emit):
    table = worst_case_experiment(8)
    emit("E-T3.3_worst_case_family", table)
    # pi_exact equals the formula on every row.
    for row in table._rows:
        assert row[2] == row[3]


def test_figure1_line_graph_structure(emit):
    table = Table(
        ["n", "L(G_n)_nodes", "corona_match", "is_corona"],
        title="Figure 1(b): L(G_n) is the corona K_n with n pendants",
    )
    for n in (3, 4, 5, 6, 8):
        lg = line_graph(worst_case_family(n))
        table.add_row(
            [n, lg.num_vertices, lg == corona_line_graph(n), is_corona_of_clique(lg)]
        )
    emit("Fig1_corona", table)
    assert all(row[2] == "True" and row[3] == "True" for row in table._rows)


def test_family_exact_solve():
    """pi(G_12) = 1.25 * 24 - 1; tier-1 tests stop at n = 8."""
    result = solve_exact(worst_case_family(12))
    assert result.effective_cost == 29
