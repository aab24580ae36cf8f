"""Per-step CPU time of ``solve_dfs_approx`` over the E-T3.1 series.

Not a benchmark (pytest collects only ``bench_*.py``).  It splits the work
the E-T3.1 slope gate times into its steps, so a slope above the gate's
bound can be traced to a step: each step's per-edge cost and its own
log-log slope, best of ``--rounds`` CPU-time runs, round-robin over the
sizes.  ``tour`` is ``component_tour_dfs``: the repr sort of ``edges()``
(also shown alone), the peel and the chunk reordering; ``total`` sums the
steps ``solve_dfs_approx`` runs.  The last row is a control: a loop of
integer additions, ``m`` times a constant, which touches no per-edge
object, timed the same way.

    PYTHONPATH=src python benchmarks/dfs_phases.py [--rounds 25] [--sizes N ...]

``--sizes`` takes the ``n`` of ``random_connected_bipartite(n, n, n // 2)``
(m ≈ 2.5 n); the default is the E-T3.1 series.
"""

from __future__ import annotations

import argparse
import gc
import math
import time

from scaling import loglog_slope

from repro.core.scheme import PebblingScheme
from repro.core.solvers.dfs_approx import component_tour_dfs
from repro.graphs.components import decompose
from repro.graphs.generators import random_connected_bipartite

SIZES = (500, 1000, 2000, 4000, 8000)
STEPS = ("decompose", "edges", "tour", "from_edge_order", "cost+jumps", "total")


def _timed_steps(graph) -> dict[str, float]:
    clock = time.process_time
    times = {}
    mark = clock()
    parts = decompose(graph)
    times["decompose"] = clock() - mark
    (component,) = parts.components
    mark = clock()
    component.edges()
    times["edges"] = clock() - mark
    mark = clock()
    tour, _ = component_tour_dfs(component)
    times["tour"] = clock() - mark
    mark = clock()
    scheme = PebblingScheme.from_edge_order(parts.graph, tour)
    times["from_edge_order"] = clock() - mark
    mark = clock()
    scheme.cost()
    scheme.jumps()
    times["cost+jumps"] = clock() - mark
    times["total"] = sum(times.values()) - times["edges"]
    return times


def _control(m: int) -> None:
    total = 0
    for i in range(60 * m):
        total += i & 7


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    args = parser.parse_args()
    sizes = args.sizes
    graphs = {
        n: random_connected_bipartite(n, n, extra_edges=n // 2, seed=1)
        for n in sizes
    }
    best = {(step, n): math.inf for step in (*STEPS, "control") for n in sizes}
    for _ in range(args.rounds):
        for n, graph in graphs.items():
            gc.collect()
            gc.disable()
            try:
                times = _timed_steps(graph)
                mark = time.process_time()
                _control(graph.num_edges)
                times["control"] = time.process_time() - mark
            finally:
                gc.enable()
            for step, seconds in times.items():
                best[step, n] = min(best[step, n], seconds)
    ms = [graphs[n].num_edges for n in sizes]
    print(f"{'step':16s} slope  us/edge at m = " + " ".join(f"{m:>6d}" for m in ms))
    for step in (*STEPS, "control"):
        ys = [best[step, n] for n in sizes]
        per_edge = " ".join(f"{1e6 * y / m:6.2f}" for y, m in zip(ys, ms))
        print(f"{step:16s} {loglog_slope(ms, ys):5.2f}  {per_edge}")


if __name__ == "__main__":
    main()
