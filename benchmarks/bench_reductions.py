"""E-T4.3 / E-T4.4 / Figure 2: the L-reductions and the diamond gadget.

Regenerates: the measured α/β tables for both reductions and the gadget's
certification summary (including the documented negative finding on full
Fig-2 gadgets).
"""

from repro.analysis.experiments import reduction_experiment
from repro.analysis.report import Table
from repro.core.gadgets import default_gadget


def test_reduction_tables(emit):
    diamond, incidence = reduction_experiment(seeds=5)
    emit("E-T4.3_diamond_reduction", diamond)
    emit("E-T4.4_incidence_reduction", incidence)
    # Beta stays within the paper's beta = 1 on every probe.
    for table in (diamond, incidence):
        for row in table._rows:
            assert float(row[-1]) <= 1.0 + 1e-9


def test_figure2_gadget_certificate(emit):
    gadget = default_gadget()
    cert = gadget.certify()
    table = Table(
        ["property", "status"],
        title="Figure 2: shipped diamond gadget certificate (10 nodes)",
    )
    table.add_row(["degree bound (corners 2, centrals <= 3)", cert.degree_ok])
    table.add_row(["endpoint property (all Ham paths end at corners)", cert.endpoints_ok])
    table.add_row(
        ["corner connectivity", f"5/6 pairs (missing {gadget.missing_pairs()})"]
    )
    table.add_row(
        [
            "negative finding",
            "exhaustive template search: no <=14-node gadget has all three",
        ]
    )
    emit("Fig2_gadget", table)
