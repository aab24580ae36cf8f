"""Extension benchmarks: the §5 open problem and the k-pebble game.

Not part of the paper's evaluation proper, but regenerating the evidence
for its closing remarks:

- partitioned joins: mapping strategies vs the exact optimum (the paper
  states the problem is NP-complete and conjectures equijoins approximate
  well — our hash packer ties the optimum on every tested equijoin);
- the k-pebble generalization: cost as a function of the number of memory
  frames, interpolating between the paper's 2-pebble game and one-pass
  ``n``-frame execution.
"""

from repro.analysis.report import Table
from repro.errors import InstanceTooLargeError
from repro.graphs.generators import random_bipartite_gnm, union_of_bicliques
from repro.joins.partitioning import (
    cell_capacity_lower_bound,
    greedy_partitioning,
    hash_partitioning,
    optimal_partitioning_bruteforce,
    round_robin_partitioning,
)
from repro.core.families import worst_case_family
from repro.core.kpebble import (
    greedy_kpebble_cost,
    kpebble_lower_bound,
    optimal_kpebble_cost_bruteforce,
)
from repro.core.solvers.exact import solve_exact


def test_partitioning_strategies(emit):
    import random

    rng = random.Random(5)
    equijoins = [
        union_of_bicliques(
            [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(rng.randint(2, 4))]
        )
        for _ in range(5)
    ]
    generals = [random_bipartite_gnm(3, 3, 6, seed=s) for s in range(3)]

    table = Table(
        ["instance", "m", "lb", "round_robin", "hash", "greedy", "optimal"],
        title="S5 open problem: sub-joins under 2x2 balanced partitionings",
    )
    for kind, graphs in (("equijoin", equijoins), ("general", generals)):
        for index, g in enumerate(graphs):
            try:
                opt = optimal_partitioning_bruteforce(g, 2, 2).cost(g)
            except InstanceTooLargeError:
                opt = "-"
            table.add_row(
                [
                    f"{kind}_{index}",
                    g.num_edges,
                    cell_capacity_lower_bound(g, 2, 2),
                    round_robin_partitioning(g, 2, 2).cost(g),
                    hash_partitioning(g, 2, 2).cost(g),
                    greedy_partitioning(g, 2, 2).cost(g),
                    opt,
                ]
            )
    emit("S5_partitioning", table)
    # The conjecture's evidence: hash == optimal on every equijoin row.
    for row in table._rows:
        if row[0].startswith("equijoin") and row[-1] != "-":
            assert row[4] == row[-1]


def test_kpebble_frame_sweep(emit):
    instances = [
        ("K_{2,3}", union_of_bicliques([(2, 3)])),
        ("G_3", worst_case_family(3)),
        ("random", random_bipartite_gnm(3, 3, 7, seed=4).without_isolated_vertices()),
    ]

    table = Table(
        ["instance", "m", "lb", "k=2(exact)", "k=3", "k=4", "k=n"],
        title="k-pebble game: optimal moves vs number of memory frames",
    )
    for name, g in instances:
        n = (
            len(g.left) + len(g.right)
        )
        row = [name, g.num_edges, kpebble_lower_bound(g)]
        row.append(solve_exact(g).scheme.cost())
        for k in (3, 4):
            row.append(optimal_kpebble_cost_bruteforce(g, k))
        row.append(optimal_kpebble_cost_bruteforce(g, n))
        table.add_row(row)
    emit("kpebble_sweep", table)
    for row in table._rows:
        # Monotone in k, floored by the bound.
        costs = [int(c) for c in row[3:]]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert costs[-1] >= int(row[2])


def test_greedy_kpebble_scaling():
    g = union_of_bicliques([(3, 3)] * 6)
    assert greedy_kpebble_cost(g, 4) >= kpebble_lower_bound(g)
