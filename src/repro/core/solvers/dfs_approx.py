"""The 1.25-approximation of Theorem 3.1 / Lemma 3.1.

The algorithm follows the paper's proof:

1. ``L(G)`` of a connected component is connected and claw-free.
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
   - ``l1 ~ l2``: re-hang ``l2`` under ``l1`` (chain ``p–l1–l2``); this
     case never arises here, since siblings of a DFS tree never touch.

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

Cost: O(m log m) per component, and ``L(G)`` is never built.  Edges are
indexed by their ``repr`` rank and their endpoints interned to ints; two
line nodes are adjacent iff their edges share an endpoint, and the DFS
finds a node's next child as the smallest unvisited edge at either
endpoint, with one forward cursor per vertex.  The peel keeps each node's
subtree size capped at 4 (a removal changes it for at most 4 ancestors),
finds twins with a heap keyed by DFS discovery order and takes candidates
from one sorted pass, so each step costs O(log m), not a tree pass.
"""

from __future__ import annotations

import heapq

from repro.errors import SolverError
from repro.graphs.bipartite import BipartiteGraph
# component_vertex_sets stays imported: perfbench/tracer.py wraps it here.
from repro.graphs.components import Decomposition, component_vertex_sets, decompose
# line_graph and dfs_tree stay imported: perfbench/tracer.py wraps them here.
from repro.graphs.line_graph import EdgeTable, line_graph
from repro.graphs.simple import Graph
from repro.graphs.traversal import dfs_tree
from repro.core.tsp import reorder_paths_greedily, tour_from_paths
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


def _line_dfs(
    tail: list[int], head: list[int], incidence: list[list[int]]
) -> tuple[list[int], list[int], list[int], list[int], list[int], list[int]]:
    """DFS of ``L(G)`` from edge 0, neighbours in index order, without
    building ``L(G)``: ``(parent, first, second, depth, size, order)``.

    Edge ``i`` joins vertices ``tail[i]`` and ``head[i]``; ``incidence[a]``
    lists the edges at vertex ``a`` in index order and ends with the
    sentinel ``m``.  Visited status only grows, so a node's next child is
    the smallest unvisited edge at either endpoint, and one forward cursor
    per vertex finds it.  The tree is binary (claw-freeness), so a node's
    children are ``first`` and ``second`` (-1 for none), in the order they
    were hung.  ``size`` is the subtree size capped at 4, all the peel needs
    to know; ``order`` is the discovery order.
    """
    m = len(tail)
    parent = [-1] * m
    first = [-1] * m
    second = [-1] * m
    depth = [0] * m
    size = [1] * m
    visited = bytearray(m + 1)
    cursor = [0] * len(incidence)
    order = [0]
    visited[0] = 1
    stack = [0]
    while stack:
        node = stack[-1]
        nearest = m
        for a in (tail[node], head[node]):
            incident = incidence[a]
            c = cursor[a]
            while visited[incident[c]]:
                c += 1
            cursor[a] = c
            if incident[c] < nearest:
                nearest = incident[c]
        if nearest == m:
            stack.pop()
            up = parent[node]
            if up >= 0:
                size[up] = min(4, size[up] + size[node])
            continue
        visited[nearest] = 1
        parent[nearest] = node
        if first[node] < 0:
            first[node] = nearest
        else:
            second[node] = nearest
        depth[nearest] = depth[node] + 1
        order.append(nearest)
        stack.append(nearest)
    return parent, first, second, depth, size, order


def _peel(table: EdgeTable) -> list[list[int]]:
    """The Theorem 3.1 chunks of one connected component, as edge ids of
    its table.

    The root is edge 0 and ties go in id order, which for a table built
    from ``edges()`` (sorted by ``repr``) is repr order.
    """
    m = len(table)
    tail, head = table.tail, table.head
    incidence = [incident + [m] for incident in table.incidence()]

    def adjacent(x: int, y: int) -> bool:
        a, b = tail[y], head[y]
        return tail[x] == a or tail[x] == b or head[x] == a or head[x] == b

    parent, first, second, depth, size, order = _line_dfs(tail, head, incidence)
    rank = [0] * m
    for position, node in enumerate(order):
        rank[node] = position
    alive = bytearray(b"\x01") * m

    # Child lists of at most two, kept in the order a list's append and
    # remove would leave them: chunk paths and the final star read it.
    def adopt(x: int, child: int) -> None:
        if first[x] < 0:
            first[x] = child
        else:
            second[x] = child

    def disown(x: int, child: int) -> None:
        if first[x] == child:
            first[x] = second[x]
        second[x] = -1

    def chain_down(node: int) -> list[int]:
        # Twin-free binary subtrees of ≤ 3 nodes are chains.
        chain = [node]
        while first[node] >= 0:
            if second[node] >= 0:
                raise SolverError("subtree expected to be a chain has a branch")
            node = first[node]
            chain.append(node)
        return chain

    def is_twin_parent(x: int) -> bool:
        return (
            alive[x]
            and second[x] >= 0
            and first[first[x]] < 0
            and first[second[x]] < 0
        )

    # Twin parents keyed by discovery rank, so the first pair in DFS order
    # goes first; lazy deletion.  Rewiring never makes a twin parent; a
    # removal can make one, the removed subtree's grandparent.
    twins = [rank[x] for x in order if is_twin_parent(x)]
    # Peel candidates, deepest first, ties to the largest repr.  No node
    # reaches capped size 4 after the DFS and a candidate's depth never
    # changes (rewiring moves only nodes of a 3-node subtree), so one
    # sorted pass with a forward pointer replaces a heap.
    candidates = [x for x in reversed(range(m)) if size[x] >= 4]
    candidates.sort(key=depth.__getitem__, reverse=True)  # stable
    pick = 0
    remaining = m
    chunks: list[list[int]] = []
    while remaining >= 4:
        while twins:
            p = order[twins[0]]
            if not is_twin_parent(p):
                heapq.heappop(twins)
                continue
            g = parent[p]
            if g < 0:
                break
            heapq.heappop(twins)
            l1, l2 = first[p], second[p]
            if adjacent(g, l1):  # chain g–l1–p–l2
                parent[l1], parent[p] = g, l1
                disown(g, p)
                adopt(g, l1)
                adopt(l1, p)
                disown(p, l1)
                size[l1], size[p] = 3, 2
            elif adjacent(g, l2):  # chain g–l2–p–l1
                parent[l2], parent[p] = g, l2
                disown(g, p)
                adopt(g, l2)
                adopt(l2, p)
                disown(p, l2)
                size[l2], size[p] = 3, 2
            else:
                # The proof's third case, l1 ~ l2, cannot occur: every L(G)
                # edge joins an ancestor and a descendant, in a DFS tree
                # and after each rewiring, so siblings never touch.
                raise SolverError(
                    "claw K_{1,3} found in a line graph — input corrupted"
                )
        target = candidates[pick]
        while not (alive[target] and size[target] >= 4):
            pick += 1
            target = candidates[pick]
        if second[target] < 0:
            chunk = [target] + chain_down(first[target])
        else:
            chunk = chain_down(first[target])
            chunk.reverse()
            chunk += [target] + chain_down(second[target])
        chunks.append(chunk)
        for x in chunk:
            alive[x] = 0
        remaining -= len(chunk)
        up = parent[target]
        if up < 0:
            break
        disown(up, target)
        # Capped sizes change for at most the 4 nearest ancestors.
        x = up
        while x >= 0:
            capped = 1
            for child in (first[x], second[x]):
                if child >= 0:
                    capped += size[child]
            capped = min(4, capped)
            if capped == size[x]:
                break
            size[x] = capped
            x = parent[x]
        for x in (up, parent[up]):
            if x >= 0 and is_twin_parent(x):
                heapq.heappush(twins, rank[x])
    if remaining > 0:
        if second[0] < 0:
            chunks.append(chain_down(0))
        else:
            # A 3-node star: traverse through the root.
            chunks.append([first[0], 0, second[0]])
    # Verify each chunk really is a weight-1 path (cheap certification).
    for chunk in chunks:
        for x, y in zip(chunk, chunk[1:]):
            if not adjacent(x, y):
                raise SolverError("internal error: chunk is not an L(G) path")
    return chunks


def component_tour_ids(table: EdgeTable) -> tuple[list[int], int]:
    """A 1.25-approximate tour for one connected component, from its edge
    table: ``(tour of edge ids, chunk_count)``."""
    if not len(table):
        return [], 0
    chunks = _peel(table)
    ordered = reorder_paths_greedily(chunks, table.ends().__getitem__)
    return tour_from_paths(ordered), len(chunks)


def solve_dfs_approx(
    graph: AnyGraph | Decomposition, budget: Budget | None = None
) -> list[list[int]]:
    """Run the Theorem 3.1 approximation over every component of ``graph``:
    one tour per component, in component order, each of ids of the
    component's edge table (:attr:`Decomposition.tables`).

    Placed one after another the tours pebble ``graph`` at effective cost
    at most ``Σ_c (m_c + ⌊m_c/4⌋)``, the upper bound of
    :func:`~repro.core.costs.effective_cost_bounds` (asserted by the
    test-suite on thousands of random graphs).

    This is the bottom of the degradation ladder that still carries a
    guarantee, so it never stops early: a ``budget`` is polled only for
    node accounting (O(m log m) — by the time a deadline can trip, the
    answer is essentially done anyway).
    """
    tours: list[list[int]] = []
    chunk_total = 0
    with obs_trace.span("solver.dfs_approx"):
        for table in decompose(graph).tables:
            if budget is not None:
                budget.poll(max(1, len(table)))
            tour, chunks = component_tour_ids(table)
            tours.append(tour)
            chunk_total += chunks
    if obs_recorder.ON:
        obs_metrics.inc("solver.dfs_approx.solves")
        obs_metrics.inc("solver.dfs_approx.chunks", chunk_total)
    return tours
