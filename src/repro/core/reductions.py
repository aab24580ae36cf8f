"""Executable L-reductions (Theorems 4.3 and 4.4).

The paper's hardness chain is

    TSP-4(1,2)  --diamond gadget-->  TSP-3(1,2)  --incidence graph-->  PEBBLE

where TSP-k(1,2) asks for a minimum-cost visiting order of all nodes of a
complete graph with weights in {1,2} and at most ``k`` weight-1 edges per
node; following §2.2, a "tour" is a Hamiltonian *path* in the completion.

This module implements both reductions as executable instance maps ``f``
and solution maps ``g``, plus a harness measuring the L-reduction constants
α and β on concrete instances (Def 4.2):

1. ``OPT(f(x)) ≤ α · OPT(x)``;
2. ``OPT(x) − cost(g(s)) ≤ β · (OPT(f(x)) − cost(s))`` for feasible ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ReductionError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import incidence_graph
from repro.graphs.simple import Graph
from repro.core.gadgets import DiamondGadget, default_gadget
from repro.core.scheme import PebblingScheme
from repro.core.solvers.local_search import two_opt_pass
from repro.core.tsp import scheme_to_tour

# ---------------------------------------------------------------------------
# TSP(1,2) instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tsp12Instance:
    """A TSP(1,2) instance: the weight-1 edge set as a graph.

    Pairs not in the graph have weight 2.  ``max_good_degree`` is the ``k``
    of TSP-k(1,2).
    """

    graph: Graph

    @property
    def num_nodes(self) -> int:
        return self.graph.num_vertices

    @property
    def max_good_degree(self) -> int:
        return self.graph.max_degree()

    def tour_cost(self, tour: list) -> int:
        """Cost of a visiting order: 1 per good step, 2 per bad step."""
        if set(tour) != set(self.graph.vertices) or len(tour) != self.num_nodes:
            raise ReductionError("tour must visit every node exactly once")
        cost = 0
        for a, b in zip(tour, tour[1:]):
            cost += 1 if self.graph.has_edge(a, b) else 2
        return cost

    def optimal_tour(self) -> tuple[list, int]:
        """Exact optimum by minimum path partition of the weight-1 graph.

        The same jump identity the pebbling solver uses: a tour with ``J``
        bad steps is a partition of the nodes into ``J + 1`` weight-1 paths
        (plus bad steps crossing between components).
        """
        from repro.core.solvers.exact import minimum_path_partition

        if self.num_nodes == 0:
            return [], 0
        partition = minimum_path_partition(self.graph)
        tour = [node for path in partition for node in path]
        return tour, self.tour_cost(tour)


def improve_tsp12_tour(instance: Tsp12Instance, tour: list, max_rounds: int = 5000) -> list:
    """Polynomial 2-opt improvement of a TSP(1,2) visiting order.

    The solution maps ``g`` of both reductions run this after their
    structural conversion — the paper's proofs similarly post-process
    ("nice-ify") the recovered tour before reading off its cost, and an
    L-reduction's ``g`` may be any polynomial-time map.  It is the
    polisher's jump-local 2-opt pass with the instance's weight-1 edges as
    the adjacency test, repeated to a 2-opt local optimum.
    """
    working = list(tour)
    for _ in range(max_rounds):
        if not two_opt_pass(working, instance.graph.has_edge):
            break
    return working


# ---------------------------------------------------------------------------
# Theorem 4.3: TSP-4(1,2) -> TSP-3(1,2) via the diamond gadget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiamondReduction:
    """The instance map of Theorem 4.3 plus the bookkeeping ``g`` needs."""

    source: Tsp12Instance
    target: Tsp12Instance
    gadget: DiamondGadget
    # For every replaced source node: the map corner-label -> target node,
    # and the gadget's node set in the target.
    corner_of: dict[tuple[Any, int], Any]
    diamond_nodes: dict[Any, list[Any]]
    attachment: dict[tuple[Any, Any], Any]  # (replaced u, neighbor w) -> corner node


def tsp4_to_tsp3(
    instance: Tsp12Instance, gadget: DiamondGadget | None = None
) -> DiamondReduction:
    """Replace every degree-4 node by a diamond gadget (the ``f`` of 4.3).

    Nodes of degree ≤ 3 are kept as-is; each degree-4 node ``u`` becomes a
    copy ``d_u`` of the gadget, with each of ``u``'s four edges attached to
    a distinct corner.  Degrees above 4 are out of scope (as in the paper,
    whose source problem is TSP-4(1,2)).
    """
    gadget = gadget or default_gadget()
    source = instance.graph
    if source.max_degree() > 4:
        raise ReductionError("tsp4_to_tsp3 requires max weight-1 degree 4")
    target = Graph()
    corner_of: dict[tuple[Any, int], Any] = {}
    diamond_nodes: dict[Any, list[Any]] = {}
    attachment: dict[tuple[Any, Any], Any] = {}

    replaced = {v for v in source.vertices if source.degree(v) == 4}
    # Keep light nodes.
    for v in source.vertices:
        if v not in replaced:
            target.add_vertex(v)
    # Instantiate gadget copies.
    for u in replaced:
        nodes = []
        for node in gadget.graph.vertices:
            target.add_vertex((u, node))
            nodes.append((u, node))
        for a, b in gadget.graph.edges():
            target.add_edge((u, a), (u, b))
        diamond_nodes[u] = nodes
        for i, corner in enumerate(gadget.corners):
            corner_of[(u, i)] = (u, corner)
    # Wire original edges, assigning each replaced node's edges to corners.
    slot: dict[Any, int] = {u: 0 for u in replaced}

    def endpoint_in_target(u: Any, other: Any) -> Any:
        if u not in replaced:
            return u
        corner = corner_of[(u, slot[u])]
        slot[u] += 1
        attachment[(u, other)] = corner
        return corner

    for a, b in source.edges():
        ta = endpoint_in_target(a, b)
        tb = endpoint_in_target(b, a)
        target.add_edge(ta, tb)

    reduction = DiamondReduction(
        source=instance,
        target=Tsp12Instance(target),
        gadget=gadget,
        corner_of=corner_of,
        diamond_nodes=diamond_nodes,
        attachment=attachment,
    )
    if reduction.target.max_good_degree > 3:
        raise ReductionError("internal error: target degree exceeds 3")
    return reduction


def forward_tour(reduction: DiamondReduction, tour: list) -> list:
    """Lift a source tour to a target tour (the constructive side of α).

    Each visit of a replaced node ``u`` is expanded into a Hamiltonian path
    of ``d_u`` whose end corners match the corners the tour enters/leaves
    through (arbitrary corners when the adjacent step is a jump), following
    the proof of Theorem 4.3.
    """
    source = reduction.source.graph
    gadget = reduction.gadget
    out: list = []
    for position, node in enumerate(tour):
        if node not in reduction.diamond_nodes:
            out.append(node)
            continue
        prev_node = tour[position - 1] if position > 0 else None
        next_node = tour[position + 1] if position + 1 < len(tour) else None
        enter = exit_ = None
        if prev_node is not None and source.has_edge(prev_node, node):
            enter = reduction.attachment[(node, prev_node)][1]
        if next_node is not None and source.has_edge(node, next_node):
            exit_ = reduction.attachment[(node, next_node)][1]
        c1, c2 = gadget.pick_corner_pair(enter, exit_)
        for g_node in gadget.hamiltonian_corner_path(c1, c2):
            out.append((node, g_node))
    return out


def reverse_tour(reduction: DiamondReduction, target_tour: list) -> list:
    """The solution map ``g`` of Theorem 4.3.

    Produces a source tour "by visiting the nodes in the same order in
    which the diamonds appear" — i.e. each replaced node is placed at the
    first visit of its diamond, and unreplaced nodes keep their positions.
    """
    seen: set = set()
    out: list = []
    for node in target_tour:
        if isinstance(node, tuple) and len(node) == 2 and node[0] in reduction.diamond_nodes:
            original = node[0]
        else:
            original = node
        if original not in seen:
            seen.add(original)
            out.append(original)
    if set(out) != set(reduction.source.graph.vertices):
        raise ReductionError("target tour does not cover all diamonds")
    return improve_tsp12_tour(reduction.source, out)


# ---------------------------------------------------------------------------
# Theorem 4.4: TSP-3(1,2) -> PEBBLE via incidence graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncidenceReduction:
    """The f/g pair of Theorem 4.4."""

    source: Tsp12Instance
    join_graph: BipartiteGraph


def tsp3_to_pebble(instance: Tsp12Instance) -> IncidenceReduction:
    """``f``: the incidence bipartite graph ``B = (V, E, incidences)``.

    Nodes of ``L(B)`` are incidences ``(v, e)``; per the proof, ``L(B)`` is
    the source graph with every vertex of degree ``i`` blown up into a
    clique ``K_i`` — so good tours of the source translate into good
    pebbling schemes of ``B`` and back.
    """
    if instance.max_good_degree > 3:
        raise ReductionError("tsp3_to_pebble requires max weight-1 degree 3")
    if any(instance.graph.degree(v) == 0 for v in instance.graph.vertices):
        raise ReductionError(
            "isolated weight-1 nodes have no incidences; "
            "restrict to instances without isolated nodes"
        )
    return IncidenceReduction(
        source=instance, join_graph=incidence_graph(instance.graph)
    )


def pebble_scheme_to_tsp_tour(
    reduction: IncidenceReduction, scheme: PebblingScheme
) -> list:
    """``g``: a pebbling scheme of ``B`` → a tour of the source graph.

    Each scheme configuration is an incidence ``(v, e)`` of the source;
    ordering source vertices by the first time any of their incidences is
    pebbled yields the tour (the "visit in order of first appearance"
    conversion of the proof).
    """
    join_graph = reduction.join_graph
    if not scheme.is_edge_order(join_graph):
        raise ReductionError("scheme must be a canonical edge order of B")
    tour: list = []
    seen: set = set()
    for a, b in scheme.configurations:
        vertex, _edge = join_graph.orient_edge(a, b)
        if vertex not in seen:
            seen.add(vertex)
            tour.append(vertex)
    if set(tour) != set(reduction.source.graph.vertices):
        raise ReductionError("scheme does not touch every source vertex")
    return improve_tsp12_tour(reduction.source, tour)


def tsp_tour_to_pebble_tour(reduction: IncidenceReduction, tour: list) -> list:
    """The constructive direction: a source tour → an edge order of ``B``.

    Visiting vertex ``v`` pebbles all of ``v``'s not-yet-deleted incidence
    edges consecutively, ordering them so that the incidence shared with
    the next tour step comes last (staying inside ``v``'s clique of
    ``L(B)`` costs 1 per step; crossing to the next vertex through a shared
    source edge also costs 1).
    """
    source = reduction.source.graph
    join_graph = reduction.join_graph
    done: set = set()
    order: list = []
    for position, vertex in enumerate(tour):
        next_vertex = tour[position + 1] if position + 1 < len(tour) else None
        incident = [
            (vertex, edge)
            for edge in sorted(join_graph.neighbors(vertex), key=repr)
            if (vertex, edge) not in done
        ]
        # Put the incidence of the edge leading to the next tour vertex last.
        if next_vertex is not None and source.has_edge(vertex, next_vertex):
            from repro.graphs.simple import normalize_edge

            bridge = normalize_edge(vertex, next_vertex)
            incident.sort(key=lambda pair: pair[1] == bridge)
        for pair in incident:
            done.add(pair)
            order.append(pair)
        # The next vertex's incidence of the bridge edge follows naturally
        # because it shares the edge endpoint in L(B).
        if next_vertex is not None and source.has_edge(vertex, next_vertex):
            from repro.graphs.simple import normalize_edge

            bridge = normalize_edge(vertex, next_vertex)
            if (next_vertex, bridge) not in done:
                done.add((next_vertex, bridge))
                order.append((next_vertex, bridge))
    if len(order) != join_graph.num_edges:
        raise ReductionError("internal error: not all incidences ordered")
    return order


# ---------------------------------------------------------------------------
# L-reduction measurement harness (Def 4.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LReductionReport:
    """Empirical α/β measurement of one reduction on one instance."""

    opt_source: int
    opt_target: int
    alpha_observed: float
    beta_observed: float  # max over probed solutions; 0 when all were optimal

    def satisfies(self, alpha: float, beta: float) -> bool:
        return self.alpha_observed <= alpha + 1e-9 and self.beta_observed <= beta + 1e-9


def measure_diamond_reduction(
    reduction: DiamondReduction, probe_tours: list[list] | None = None
) -> LReductionReport:
    """Measure α and β for one TSP-4 → TSP-3 reduction instance.

    α is measured from the true optima of source and target; β from the
    supplied probe tours of the *target* (defaults to the lifted optimal
    tour), comparing the gap preserved by :func:`reverse_tour`.
    """
    src_tour, opt_source = reduction.source.optimal_tour()
    _tgt_tour, opt_target = reduction.target.optimal_tour()
    alpha = opt_target / opt_source if opt_source else 1.0
    probes = probe_tours if probe_tours is not None else [forward_tour(reduction, src_tour)]
    beta = 0.0
    for probe in probes:
        probe_cost = reduction.target.tour_cost(probe)
        back = reverse_tour(reduction, probe)
        back_cost = reduction.source.tour_cost(back)
        target_gap = probe_cost - opt_target
        source_gap = back_cost - opt_source
        if target_gap > 0:
            beta = max(beta, source_gap / target_gap)
        elif source_gap > 0:
            beta = float("inf")
    return LReductionReport(opt_source, opt_target, alpha, beta)


def measure_incidence_reduction(
    reduction: IncidenceReduction, probe_schemes: list[PebblingScheme] | None = None
) -> LReductionReport:
    """Measure α and β for one TSP-3 → PEBBLE reduction instance."""
    from repro.core.solvers.exact import solve_exact

    _src_tour, opt_source = reduction.source.optimal_tour()
    exact = solve_exact(reduction.join_graph)
    opt_target = exact.effective_cost
    alpha = opt_target / opt_source if opt_source else 1.0
    probes = probe_schemes if probe_schemes is not None else [exact.scheme]
    beta = 0.0
    for scheme in probes:
        probe_cost = scheme.effective_cost(
            reduction.join_graph.without_isolated_vertices()
        )
        tour = pebble_scheme_to_tsp_tour(reduction, scheme)
        back_cost = reduction.source.tour_cost(tour)
        target_gap = probe_cost - opt_target
        source_gap = back_cost - opt_source
        if target_gap > 0:
            beta = max(beta, source_gap / target_gap)
        elif source_gap > 0:
            beta = float("inf")
    return LReductionReport(opt_source, opt_target, alpha, beta)
