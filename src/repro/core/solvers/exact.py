"""Exact PEBBLE: optimal pebbling schemes (ground truth).

Finding ``π(G)`` is NP-complete (Theorem 4.2), so no polynomial algorithm is
possible; this solver is nonetheless exact and practical on the instance
sizes the test-suite and benchmarks use, because it searches the *right*
space: by §2.2, an optimal scheme for a connected graph is a minimum-jump
tour of ``L(G)``, and a tour with ``J`` jumps is exactly a partition of
``L(G)``'s nodes into ``J + 1`` vertex-disjoint paths.  The solver therefore
runs iterative deepening on the number of paths, starting from the
deficiency lower bound of :mod:`repro.core.lower_bounds`, with
branch-and-bound pruning.  On easy graphs (perfect pebblings exist) it
terminates at the first level; on adversarial families its running time
grows exponentially — benchmark ``bench_hardness_scaling`` measures exactly
this, which is the empirical face of Theorem 4.2.

Two safety valves:

- components that are complete bipartite are pebbled by the closed-form
  boustrophedon order (always optimal since ``π ≥ m``);
- a search-node budget raises
  :class:`~repro.errors.InstanceTooLargeError` instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from repro.errors import InstanceTooLargeError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, betti_number, decompose
from repro.graphs.line_graph import EdgeTable
from repro.graphs.simple import Graph
from repro.core.lower_bounds import effective_cost_lower_bound
from repro.core.scheme import PebblingScheme
from repro.core.solvers.equijoin import biclique_tour
from repro.core.tsp import tour_cost, tour_from_paths
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact solve.

    ``deficiency_tight`` records *why* the answer is optimal: True means
    the deficiency lower bound (:mod:`repro.core.lower_bounds`) matched
    the achieved cost on every component — a succinct optimality
    certificate needing no search transcript; False means optimality
    rests on the iterative-deepening search having exhausted the cheaper
    levels.
    """

    scheme: PebblingScheme
    effective_cost: int
    jumps: int
    search_nodes: int
    deficiency_tight: bool = False


def line_masks(table: EdgeTable) -> list[int]:
    """``L(G)`` as adjacency bitmasks, one per edge id of ``table``: bit
    ``j`` of mask ``i`` is set iff edges ``i`` and ``j`` share an endpoint.
    Read off the table's incidence lists; ``L(G)`` is never built."""
    at = []
    for incident in table.incidence():
        bits = 0
        for i in incident:
            bits |= 1 << i
        at.append(bits)
    # Edge i is at both its ends: the union holds its own bit, once.
    return [(at[a] | at[b]) ^ (1 << i) for i, (a, b) in enumerate(table.ends())]


class _PathPartitionSearch:
    """Branch-and-bound search for a partition of a graph into ≤ p paths.

    The graph is given as adjacency bitmasks over node indices
    ``0 … n−1`` (``adjacency[i]`` has bit ``j`` set iff ``i ~ j``), and
    ties go to the smaller index.  Paths are built
    one at a time; each new path is seeded at the smallest unvisited index
    and grown in two phases (first from the tail, then — after the tail is
    sealed — from the head), which keeps the search complete while avoiding
    mirrored duplicates.  Seeding at the smallest unvisited index is safe
    *because* of two-sided growth: every path contains the smallest index
    among its nodes somewhere, and growing both directions from that node
    reaches all such paths.
    """

    def __init__(
        self,
        adjacency: list[int],
        node_budget: int,
        use_ordering: bool = True,
        budget: Budget | None = None,
    ) -> None:
        self.adjacency = adjacency
        self.n = len(adjacency)
        self.node_budget = node_budget
        self.budget = budget
        self.nodes_expanded = 0
        self.pruned = 0
        self.bound_checks = 0
        self.full = (1 << self.n) - 1
        # Ablation switch: with use_ordering=False, pivots and extensions
        # are taken in raw index order instead of most-constrained-first
        # (bench_ablations measures the difference in search effort).
        self.use_ordering = use_ordering

    # -- lower bound on paths needed for an unvisited set ---------------
    def _partition_lb(self, unvisited: int) -> int:
        self.bound_checks += 1
        if not unvisited:
            return 0
        count = 0
        capacity = 0
        mask = unvisited
        while mask:
            low = mask & (-mask)
            mask ^= low
            v = low.bit_length() - 1
            count += 1
            capacity += min((self.adjacency[v] & unvisited).bit_count(), 2)
        return max(1, count - capacity // 2)

    def _charge(self) -> None:
        self.nodes_expanded += 1
        if self.budget is not None:
            # Cooperative checkpoint: raises BudgetExhaustedError on a
            # tripped deadline or node budget (the registry ladder catches
            # it and serves the 1.25-approximation instead).
            self.budget.checkpoint()
        if self.nodes_expanded > self.node_budget:
            raise InstanceTooLargeError(
                f"exact search exceeded node budget {self.node_budget}"
            )

    def _unvisited_degree(self, v: int, unvisited: int) -> int:
        return (self.adjacency[v] & unvisited).bit_count()

    def _ordered_bits(self, mask: int, unvisited: int) -> list[int]:
        """Bits of ``mask`` ordered most-constrained first (fewest unvisited
        neighbours), which lets dead-end chains get absorbed early."""
        out = []
        remaining = mask
        while remaining:
            low = remaining & (-remaining)
            remaining ^= low
            out.append(low.bit_length() - 1)
        if self.use_ordering:
            out.sort(key=lambda v: self._unvisited_degree(v, unvisited))
        return out

    def solve(self, max_paths: int) -> list[list[int]] | None:
        """Return a partition into at most ``max_paths`` paths, or None."""
        if self.n == 0:
            return []
        result = self._search(self.full, [], max_paths)
        return result

    def minimum(self) -> tuple[list[list[int]], int]:
        """A minimum partition by iterative deepening from the deficiency
        lower bound (the first level that succeeds is optimal), and the
        number of levels searched."""
        if self.n == 0:
            return [], 0
        lower = self._partition_lb(self.full)
        for p in range(lower, self.n + 1):
            # One span per iterative-deepening level: the profile shows how
            # much of the exponential blow-up each extra path level costs.
            with obs_trace.span("solver.exact.level", paths=p):
                if obs_recorder.ON:
                    obs_events.emit(
                        obs_events.EVENT_SOLVER_PHASE,
                        phase="exact.deepening",
                        paths=p,
                    )
                partition = self.solve(p)
            if partition is not None:
                return partition, p - lower + 1
        raise AssertionError("a partition into n singleton paths always exists")

    def _search(
        self, unvisited: int, done: list[list[int]], budget: int
    ) -> list[list[int]] | None:
        if not unvisited:
            return [list(p) for p in done]
        if budget <= 0:
            return None
        self._charge()
        # Prune: remaining nodes need at least lb paths; the new path we are
        # about to open counts toward the budget.
        lb = self._partition_lb(unvisited)
        if lb > budget:
            self.pruned += 1
            return None
        # Pivot on the most constrained unvisited node; the next path is the
        # (unique, by two-sided growth) path containing it.
        pivot = min(
            self._ordered_bits(unvisited, unvisited),
            key=lambda v: (self._unvisited_degree(v, unvisited), v),
        )
        path = [pivot]
        return self._grow_tail(
            unvisited ^ (1 << pivot), path, done, budget - 1
        )

    # In _grow_tail/_grow_head, ``future`` is the number of *additional*
    # paths that may still be opened after the current one.  Pruning rule:
    # restricting any completing solution to the unvisited set shows it can
    # be covered by (open ends of the current path) + future paths, so
    # prune when lb(unvisited) − open_ends > future.

    def _grow_tail(
        self, unvisited: int, path: list[int], done: list[list[int]], future: int
    ) -> list[list[int]] | None:
        self._charge()
        if self._partition_lb(unvisited) - 2 > future:
            self.pruned += 1
            return None
        tail = path[-1]
        extensions = self.adjacency[tail] & unvisited
        for v in self._ordered_bits(extensions, unvisited):
            low = 1 << v
            path.append(v)
            found = self._grow_tail(unvisited ^ low, path, done, future)
            if found is not None:
                return found
            path.pop()
        # Seal the tail; continue growing from the head.
        return self._grow_head(unvisited, path, done, future)

    def _grow_head(
        self, unvisited: int, path: list[int], done: list[list[int]], future: int
    ) -> list[list[int]] | None:
        self._charge()
        if self._partition_lb(unvisited) - 1 > future:
            self.pruned += 1
            return None
        head = path[0]
        extensions = self.adjacency[head] & unvisited
        for v in self._ordered_bits(extensions, unvisited):
            low = 1 << v
            path.insert(0, v)
            found = self._grow_head(unvisited ^ low, path, done, future)
            if found is not None:
                return found
            path.pop(0)
        # Close this path and recurse for the remaining nodes.
        done.append(list(path))
        found = self._search(unvisited, done, future)
        if found is not None:
            return found
        done.pop()
        return None


def minimum_path_partition(
    graph: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
    budget: Budget | None = None,
) -> list[list]:
    """A minimum partition of the nodes of ``graph`` into vertex-disjoint
    paths (each path given as a node list, consecutive nodes adjacent).

    Nodes are searched in ``repr`` order.  Iterative deepening from the
    deficiency lower bound guarantees optimality of the first partition
    found.
    """
    order = sorted(graph.vertices, key=repr)
    index = dict(zip(order, range(len(order))))
    adjacency = [0] * len(order)
    for u, v in graph.edges():
        iu, iv = index[u], index[v]
        adjacency[iu] |= 1 << iv
        adjacency[iv] |= 1 << iu
    search = _PathPartitionSearch(adjacency, node_budget, budget=budget)
    partition, _levels = search.minimum()
    return [[order[i] for i in path] for path in partition]


def optimal_component_tour(
    component: AnyGraph,
    table: EdgeTable,
    node_budget: int = DEFAULT_NODE_BUDGET,
    budget: Budget | None = None,
) -> tuple[list[int], int]:
    """An optimal edge tour for one connected component, as edge ids of
    its table (:attr:`Decomposition.tables`).

    Returns ``(tour, search_nodes)``.  The search runs on the table's
    :func:`line_masks`, so search index ``i`` is edge id ``i``.  Complete
    bipartite components are answered in closed form (boustrophedon,
    Lemma 3.2) without any search.
    """
    if isinstance(component, BipartiteGraph) and component.is_complete_bipartite():
        local = dict(zip(table.pairs(), range(len(table))))
        return [local[edge] for edge in biclique_tour(component)], 0
    search = _PathPartitionSearch(line_masks(table), node_budget, budget=budget)
    partition, levels = search.minimum()
    if obs_recorder.ON:
        obs_metrics.inc("solver.exact.search_nodes", search.nodes_expanded)
        obs_metrics.inc("solver.exact.pruned_branches", search.pruned)
        obs_metrics.inc("solver.exact.bound_checks", search.bound_checks)
        obs_metrics.inc("solver.exact.deepening_levels", levels)
    return tour_from_paths(partition), search.nodes_expanded


def solve_exact(
    graph: AnyGraph | Decomposition,
    node_budget: int = DEFAULT_NODE_BUDGET,
    budget: Budget | None = None,
) -> ExactResult:
    """An optimal pebbling scheme for ``graph`` (any bipartite or general
    graph; isolated vertices are ignored per §2).

    Components are solved independently and concatenated — optimal by the
    additivity lemma (Lemma 2.2).  With a cooperative ``budget``, the search
    raises :class:`~repro.errors.BudgetExhaustedError` when it trips; exact
    search has no useful partial state, so the registry ladder degrades to
    the DFS approximation instead.
    """
    parts = decompose(graph)
    tours: list[list[int]] = []
    total_nodes = 0
    with obs_trace.span("solver.exact"):
        for component, table in zip(parts.components, parts.tables):
            with obs_trace.span(
                "solver.exact.component", m=component.num_edges
            ):
                tour, nodes = optimal_component_tour(
                    component, table, node_budget, budget=budget
                )
            tours.append(tour)
            total_nodes += nodes
    if obs_recorder.ON:
        obs_metrics.inc("solver.exact.solves")
    scheme = PebblingScheme.from_edge_order(parts, parts.edge_ids(tours))
    effective_cost = scheme.cost() - parts.betti
    return ExactResult(
        scheme=scheme,
        effective_cost=effective_cost,
        jumps=scheme.jumps(),
        search_nodes=total_nodes,
        deficiency_tight=(
            effective_cost == effective_cost_lower_bound(parts)
        ),
    )


def exact_search_effort(
    graph: AnyGraph | Decomposition,
    use_ordering: bool = True,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Search nodes the exact engine expands on ``graph``'s components,
    with or without the most-constrained-first ordering heuristic — the
    ablation probe behind ``bench_ablations``.  Raises
    :class:`~repro.errors.InstanceTooLargeError` past the budget either
    way, so both arms stay bounded."""
    total = 0
    for table in decompose(graph).tables:
        search = _PathPartitionSearch(
            line_masks(table), node_budget, use_ordering=use_ordering
        )
        search.minimum()
        total += search.nodes_expanded
    return total


def optimal_effective_cost_bruteforce(graph: AnyGraph) -> int:
    """``π(G)`` by brute force over all edge permutations.

    Only for cross-validating the search on tiny inputs (``m ≤ 8``).
    """
    edges = graph.edges()
    if len(edges) > 8:
        raise InstanceTooLargeError("brute force limited to 8 edges")
    if not edges:
        return 0
    beta = betti_number(graph)
    best = None
    for order in permutations(edges):
        cost = tour_cost(order) + 2 - beta
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best
