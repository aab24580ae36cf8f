"""E-L2.1 / E-L2.2: cost bounds and additivity (Lemmas 2.1–2.3).

Regenerates: the bounds table (m ≤ π ≤ 1.25m on random instances), an
additivity check, and the reassembly series: per-component results
stitched into one (``assemble_components``), gated on the log-log slope
of its bytecode instruction count as the component count doubles.
"""

from scaling import loglog_slope, opcode_count

from repro.analysis.experiments import bounds_experiment
from repro.analysis.report import Table
from repro.graphs.components import decompose, disjoint_union
from repro.graphs.generators import random_connected_bipartite, union_of_bicliques
from repro.core.families import worst_case_family
from repro.core.solvers.exact import solve_exact
from repro.core.solvers.registry import solve
from repro.parallel.service import assemble_components

# Stitching C components is one pass over their edges: linear in C at a
# fixed component size.
MAX_ASSEMBLY_SLOPE = 1.10


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


def test_assembly_count_series(emit):
    """``assemble_components`` over C = 100 to 1,600 solved 3×4 bicliques
    (12 edges each): stitching the schemes and walking the stitched one
    once.  The gate is on the slope of the instruction count against C;
    a loop that re-walks the accumulated scheme per component reads
    about 2."""
    counts = (100, 200, 400, 800, 1600)
    parts = {c: decompose(union_of_bicliques([(3, 4)] * c)).each() for c in counts}
    results = {c: [solve(part, "auto") for part in parts[c]] for c in counts}
    instructions = [
        opcode_count(assemble_components, "auto", results[c]) for c in counts
    ]
    count_slope = loglog_slope(counts, instructions)
    table = Table(
        ["components", "m", "pi", "instr_per_component"],
        title=(
            "E-L2.2: reassembly of per-component results (Lemma 2.2), "
            f"instruction-count slope {count_slope:.4f} "
            f"(bound {MAX_ASSEMBLY_SLOPE:.2f})"
        ),
    )
    for c, count in zip(counts, instructions):
        assembled = assemble_components("auto", results[c])
        assert assembled.effective_cost == 12 * c
        assert assembled.raw_cost == sum(r.raw_cost for r in results[c])
        table.add_row([c, 12 * c, assembled.effective_cost, round(count / c, 1)])
    emit("E-L2.2_assembly", table)
    assert count_slope <= MAX_ASSEMBLY_SLOPE, (
        f"E-L2.2 assembly instruction-count slope {count_slope:.4f} "
        f"> {MAX_ASSEMBLY_SLOPE}"
    )
