"""The 1.25-approximation of Theorem 3.1 / Lemma 3.1.

The algorithm follows the paper's proof:

1. Build ``L(G)`` for a connected component; it is connected and claw-free.
2. Take a rooted DFS tree of ``L(G)``.  Claw-freeness forces every node to
   have at most two children (three children would be pairwise non-adjacent
   — DFS trees have no cross edges — forming an induced ``K_{1,3}``).
3. *Twin elimination*: while two leaves ``l1, l2`` share a parent ``p`` with
   grandparent ``g``, claw-freeness at ``p`` (whose neighbours ``g, l1, l2``
   cannot be pairwise non-adjacent) yields a rewiring that turns the twin
   pair into a chain using only real ``L(G)`` edges:

   - ``g ~ l1``: re-hang ``l1`` under ``g`` and ``p`` under ``l1``
     (chain ``g–l1–p–l2``);
   - ``g ~ l2``: symmetric;
   - ``l1 ~ l2``: re-hang ``l2`` under ``l1`` (chain ``p–l1–l2``).

4. *Path peeling*: in the twin-free binary tree, pick a deepest node ``r``
   with at least 4 descendants.  Each child subtree of ``r`` has at most 3
   nodes and — being twin-free and binary — is a chain hanging from the
   child, so the subtree of ``r`` is a path of 4–7 nodes.  Emit it as a
   chunk and remove it; re-eliminate twins (removals create new leaves) and
   repeat while at least 4 nodes remain.  The final at-most-3 remaining
   nodes always form a path (chain, or a 3-star traversed through its
   centre).

Every chunk except possibly the last has ≥ 4 nodes, so the tour formed by
concatenating chunks has at most ``⌊m/4⌋`` jumps, giving
``π ≤ m + ⌊m/4⌋ ≤ 1.25 m`` — the bound of Theorem 3.1.  A final greedy
reordering of chunks (which can only remove jumps) often does noticeably
better than the guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SolverError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import component_vertex_sets
from repro.graphs.line_graph import line_graph
from repro.graphs.simple import Graph
from repro.graphs.traversal import RootedTree, dfs_tree
from repro.core.scheme import PebblingScheme
from repro.core.tsp import reorder_paths_greedily, tour_from_paths
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


@dataclass(frozen=True)
class DfsApproxResult:
    """Outcome of the DFS 1.25-approximation."""

    scheme: PebblingScheme
    effective_cost: int
    jumps: int
    chunks: int
    guarantee: int  # the certified upper bound m + floor(m/4)


def _find_twins(tree: RootedTree) -> tuple | None:
    """Locate one twin pair: two leaves sharing a parent.  Returns
    ``(parent, leaf1, leaf2)`` or ``None``."""
    for node in tree.nodes():
        children = tree.children(node)
        if len(children) == 2 and all(tree.is_leaf(c) for c in children):
            return (node, children[0], children[1])
    return None


def _eliminate_twins(tree: RootedTree, line: Graph) -> None:
    """Rewire the tree until no two leaves share a parent.

    Each rewiring uses a real ``L(G)`` edge guaranteed by claw-freeness and
    strictly decreases the number of leaves, so the loop terminates.
    """
    while True:
        twins = _find_twins(tree)
        if twins is None:
            return
        parent, l1, l2 = twins
        grandparent = tree.parent(parent)
        if grandparent is None:
            # Parent is the root with exactly the two twin leaves: the whole
            # tree has 3 nodes and the caller handles it as a final chunk.
            return
        if line.has_edge(grandparent, l1):
            tree.reattach(l1, grandparent)
            tree.reattach(parent, l1)
        elif line.has_edge(grandparent, l2):
            tree.reattach(l2, grandparent)
            tree.reattach(parent, l2)
        elif line.has_edge(l1, l2):
            tree.reattach(l2, l1)
        else:
            raise SolverError(
                "claw K_{1,3} found in a line graph — input corrupted"
            )


def _chain_down(tree: RootedTree, node) -> list:
    """The chain hanging from ``node``; raises if a branch is found.

    Twin-free binary subtrees of ≤ 3 nodes are guaranteed chains, which is
    the only place this is called.
    """
    chain = [node]
    current = node
    while True:
        children = tree.children(current)
        if not children:
            return chain
        if len(children) > 1:
            raise SolverError("subtree expected to be a chain has a branch")
        current = children[0]
        chain.append(current)


def _subtree_as_path(tree: RootedTree, node) -> list:
    """The subtree of ``node`` flattened into a path through ``node``."""
    children = tree.children(node)
    if not children:
        return [node]
    if len(children) == 1:
        return [node] + _chain_down(tree, children[0])
    first = _chain_down(tree, children[0])
    second = _chain_down(tree, children[1])
    return list(reversed(first)) + [node] + second


def _peel_chunks(tree: RootedTree, line: Graph) -> list[list]:
    """Decompose the tree into path chunks per the Theorem 3.1 procedure."""
    chunks: list[list] = []
    while len(tree) >= 4:
        _eliminate_twins(tree, line)
        if len(tree) < 4:
            break
        # Deepest node with >= 4 descendants (including itself), ties to
        # the largest repr.  Sizes and depths come from one pass over the
        # tree per peel, not a parent-pointer walk per candidate, and repr
        # is taken only at the deepest level.
        sizes, depths = tree.sizes_and_depths()
        candidates = [n for n in tree.nodes() if sizes[n] >= 4]
        deepest = max(depths[n] for n in candidates)
        target = max(
            (n for n in candidates if depths[n] == deepest), key=repr
        )
        chunks.append(_subtree_as_path(tree, target))
        tree.remove_subtree(target)
    if len(tree) > 0:
        root = tree.root
        children = tree.children(root)
        if len(children) <= 1:
            chunks.append(_chain_down(tree, root))
        else:
            # A 3-node star: traverse through the root.
            chunks.append([children[0], root, children[1]])
    return chunks


def component_tour_dfs(component: AnyGraph) -> tuple[list, int]:
    """A 1.25-approximate tour for one connected component.

    Returns ``(tour, chunk_count)``.
    """
    line = line_graph(component)
    if line.num_vertices == 0:
        return [], 0
    root = min(line.vertices, key=repr)
    tree = dfs_tree(line, root)
    chunks = _peel_chunks(tree, line)
    # Verify each chunk really is a weight-1 path (cheap certification).
    for chunk in chunks:
        for a, b in zip(chunk, chunk[1:]):
            if not line.has_edge(a, b):
                raise SolverError("internal error: chunk is not an L(G) path")
    ordered = reorder_paths_greedily(chunks)
    return tour_from_paths(ordered), len(chunks)


def solve_dfs_approx(
    graph: AnyGraph, budget: Budget | None = None
) -> DfsApproxResult:
    """Run the Theorem 3.1 approximation over every component of ``graph``.

    The returned ``guarantee`` is ``Σ_c (m_c + ⌊m_c/4⌋)``; the scheme's
    measured effective cost never exceeds it (asserted by the test-suite on
    thousands of random graphs).

    This is the bottom of the degradation ladder that still carries a
    guarantee, so it never stops early: a ``budget`` is polled only for
    node accounting (linear time — by the time a deadline can trip, the
    answer is essentially done anyway).
    """
    working = graph.without_isolated_vertices()
    tours: list[list] = []
    chunk_total = 0
    guarantee = 0
    with obs_trace.span("solver.dfs_approx"):
        for vertex_set in component_vertex_sets(working):
            component = working.subgraph(vertex_set)
            if budget is not None:
                budget.poll(max(1, component.num_edges))
            tour, chunks = component_tour_dfs(component)
            tours.append(tour)
            chunk_total += chunks
            mc = component.num_edges
            guarantee += mc + mc // 4
    if obs_recorder.ON:
        obs_metrics.inc("solver.dfs_approx.solves")
        obs_metrics.inc("solver.dfs_approx.chunks", chunk_total)
    flat = [edge for tour in tours for edge in tour]
    scheme = PebblingScheme.from_edge_order(working, flat)
    return DfsApproxResult(
        scheme=scheme,
        effective_cost=scheme.effective_cost(working),
        jumps=scheme.jumps(),
        chunks=chunk_total,
        guarantee=guarantee,
    )
