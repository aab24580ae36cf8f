"""E-PHASE: the perfect-pebbling phase transition.

Regenerates: the fraction of random connected join graphs admitting a
perfect pebbling (π = m), as a function of edge density — the empirical
picture behind Prop 2.1 (perfect ⇔ traceable line graph): tree-like join
graphs strand pendant line-graph nodes, a handful of chords make perfect
schemes near-certain.
"""

from repro.analysis.experiments import traceability_phase_experiment


def test_phase_transition_table(emit):
    table = traceability_phase_experiment(
        side=5, extra_range=(0, 1, 2, 4, 8), trials=15
    )
    emit("E-PHASE_traceability", table)
    fractions = [float(row[2]) for row in table._rows]
    ratios = [float(row[3]) for row in table._rows]
    # Shape: denser graphs are perfect at least as often as the sparsest,
    # and the mean ratio never exceeds the 1.25 ceiling.
    assert fractions[-1] >= fractions[0]
    assert all(r <= 1.25 for r in ratios)
