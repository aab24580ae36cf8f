"""Reference implementations kept as test oracles.

These are the straightforward quadratic forms of the local search and of
Theorem 3.1: every 2-opt / or-opt pass rescans all ``O(m²)`` moves and
compares edges by their endpoint sets; the DFS approximation builds
``L(G)``, takes its DFS tree as a :class:`RootedTree`, rescans every node
for twins on each rewiring and walks parent pointers for each candidate's
depth; the greedy chunk reordering scans every remaining path per step; and
the Warnsdorff greedy tour builds ``L(G)`` and rescans every unvisited node
at each restart.  The library's neighbour-list, interned, incremental
versions must return exactly what these return.

The adapters at the end give these the signatures of the id functions a
solve calls (``dfs_approx.component_tour_ids``,
``greedy.component_tour_ids`` and polish's ``_local_optimum``), so a test
can put them on the solve path itself.
"""

from __future__ import annotations

from repro.core.tsp import tour_cost, tour_from_paths
from repro.errors import SolverError
from repro.graphs.line_graph import line_graph
from repro.graphs.simple import Graph
from repro.graphs.traversal import RootedTree, dfs_tree
from repro.runtime.budget import Budget


def edges_share_endpoint(e1, e2) -> bool:
    return bool(set(e1) & set(e2))


def _w(a, b) -> int:
    return 1 if edges_share_endpoint(a, b) else 2


def two_opt_pass(tour: list, w=_w) -> bool:
    """One first-improvement 2-opt sweep over all ``(i, j)``."""
    n = len(tour)
    for i in range(n - 1):
        for j in range(i + 1, n):
            before = 0
            after = 0
            if i > 0:
                before += w(tour[i - 1], tour[i])
                after += w(tour[i - 1], tour[j])
            if j < n - 1:
                before += w(tour[j], tour[j + 1])
                after += w(tour[i], tour[j + 1])
            if after < before:
                tour[i : j + 1] = reversed(tour[i : j + 1])
                return True
    return False


def or_opt_pass(tour: list, w=_w) -> bool:
    """One first-improvement single-node relocation sweep over all ``(i, k)``."""
    n = len(tour)
    for i in range(n):
        node = tour[i]
        removal_gain = 0
        if i > 0:
            removal_gain += w(tour[i - 1], node)
        if i < n - 1:
            removal_gain += w(node, tour[i + 1])
        if 0 < i < n - 1:
            removal_gain -= w(tour[i - 1], tour[i + 1])
        rest = tour[:i] + tour[i + 1 :]
        for k in range(len(rest) + 1):
            if k == i:
                continue  # reinserting in place
            insertion_cost = 0
            if k > 0:
                insertion_cost += w(rest[k - 1], node)
            if k < len(rest):
                insertion_cost += w(node, rest[k])
            if 0 < k < len(rest):
                insertion_cost -= w(rest[k - 1], rest[k])
            if insertion_cost < removal_gain:
                tour[:] = rest[:k] + [node] + rest[k:]
                return True
    return False


def improve_tour(
    tour: list, max_rounds: int = 10_000, budget: Budget | None = None
) -> list:
    """2-opt then or-opt, first improvement, to a local optimum."""
    working = list(tour)
    for _ in range(max_rounds):
        if budget is not None and budget.poll(max(1, len(working))):
            break
        if two_opt_pass(working):
            continue
        if or_opt_pass(working):
            continue
        break
    assert tour_cost(working) <= tour_cost(list(tour))
    return working


def improve_tsp12_tour(graph: Graph, tour: list, max_rounds: int = 5000) -> list:
    """The reductions' 2-opt loop with ``graph.has_edge`` as the weight-1 test."""

    def w(a, b) -> int:
        return 1 if graph.has_edge(a, b) else 2

    working = list(tour)
    for _ in range(max_rounds):
        if not two_opt_pass(working, w):
            break
    return working


def find_twins(tree: RootedTree) -> tuple | None:
    """The first twin pair in node order: ``(parent, leaf1, leaf2)``."""
    for node in tree.nodes():
        children = tree.children(node)
        if len(children) == 2 and all(tree.is_leaf(c) for c in children):
            return (node, children[0], children[1])
    return None


def eliminate_twins(tree: RootedTree, line: Graph) -> None:
    """Rewire the tree, rescanning it per pair, until no twins remain."""
    while True:
        twins = find_twins(tree)
        if twins is None:
            return
        parent, l1, l2 = twins
        grandparent = tree.parent(parent)
        if grandparent is None:
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
            raise SolverError("claw K_{1,3} found in a line graph")


def chain_down(tree: RootedTree, node) -> list:
    """The chain hanging from ``node``; raises on a branch."""
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


def subtree_as_path(tree: RootedTree, node) -> list:
    """The subtree of ``node`` flattened into a path through ``node``."""
    children = tree.children(node)
    if not children:
        return [node]
    if len(children) == 1:
        return [node] + chain_down(tree, children[0])
    first = chain_down(tree, children[0])
    second = chain_down(tree, children[1])
    return list(reversed(first)) + [node] + second


def peel_chunks(tree: RootedTree, line: Graph) -> list[list]:
    """Theorem 3.1 peeling with a parent-pointer walk per candidate depth."""
    chunks: list[list] = []
    while len(tree) >= 4:
        eliminate_twins(tree, line)
        if len(tree) < 4:
            break
        sizes = tree.subtree_sizes()
        candidates = [n for n in tree.nodes() if sizes[n] >= 4]
        target = max(candidates, key=lambda n: (tree.depth(n), repr(n)))
        chunks.append(subtree_as_path(tree, target))
        tree.remove_subtree(target)
    if len(tree) > 0:
        root = tree.root
        children = tree.children(root)
        if len(children) <= 1:
            chunks.append(chain_down(tree, root))
        else:
            chunks.append([children[0], root, children[1]])
    return chunks


def component_tour_dfs(component) -> tuple[list, int]:
    """Theorem 3.1 on an explicit ``L(G)`` and its rewired DFS tree."""
    line = line_graph(component)
    if line.num_vertices == 0:
        return [], 0
    root = min(line.vertices, key=repr)
    chunks = peel_chunks(dfs_tree(line, root), line)
    for chunk in chunks:
        for a, b in zip(chunk, chunk[1:]):
            if not line.has_edge(a, b):
                raise SolverError("chunk is not an L(G) path")
    return tour_from_paths(reorder_paths_greedily(chunks)), len(chunks)


def reorder_paths_greedily(paths: list[list]) -> list[list]:
    """Greedy chunk chaining, scanning every remaining path per step."""
    remaining = [list(p) for p in paths]
    if not remaining:
        return []
    chain: list[list] = [remaining.pop(0)]
    while remaining:
        tail = chain[-1][-1]
        head = chain[0][0]
        placed = False
        for index, path in enumerate(remaining):
            if edges_share_endpoint(tail, path[0]):
                chain.append(remaining.pop(index))
                placed = True
                break
            if edges_share_endpoint(tail, path[-1]):
                chosen = remaining.pop(index)
                chosen.reverse()
                chain.append(chosen)
                placed = True
                break
            if edges_share_endpoint(head, path[-1]):
                chain.insert(0, remaining.pop(index))
                placed = True
                break
            if edges_share_endpoint(head, path[0]):
                chosen = remaining.pop(index)
                chosen.reverse()
                chain.insert(0, chosen)
                placed = True
                break
        if not placed:
            chain.append(remaining.pop(0))
    return chain


def component_tour_greedy(component) -> list:
    """Warnsdorff greedy on an explicit ``L(G)``: every restart scans all
    unvisited nodes, and each degree is recounted from the neighbour set."""
    line = line_graph(component)
    unvisited = set(line.vertices)
    if not unvisited:
        return []

    def remaining_degree(node) -> int:
        return sum(1 for nbr in line.neighbors(node) if nbr in unvisited)

    current = min(unvisited, key=lambda v: (line.degree(v), repr(v)))
    unvisited.discard(current)
    tour = [current]
    while unvisited:
        candidates = [n for n in line.neighbors(current) if n in unvisited]
        if candidates:
            current = min(candidates, key=lambda v: (remaining_degree(v), repr(v)))
        else:
            current = min(unvisited, key=lambda v: (remaining_degree(v), repr(v)))
        unvisited.discard(current)
        tour.append(current)
    return tour


def ids_of(table, tour: list) -> list[int]:
    """A tour of a component's edges as ids of its edge table."""
    local = dict(zip(table.pairs(), range(len(table))))
    return [local[edge] for edge in tour]


def dfs_tour_ids(graph):
    """``dfs_approx.component_tour_ids`` for the components of ``graph``,
    answered by :func:`component_tour_dfs` on the component whose
    vertices the edge table holds."""

    def tour_ids(table) -> tuple[list[int], int]:
        tour, chunks = component_tour_dfs(graph.subgraph(table.vertices))
        return ids_of(table, tour), chunks

    return tour_ids


def greedy_tour_ids(graph):
    """``greedy.component_tour_ids`` for the components of ``graph``,
    answered by :func:`component_tour_greedy`."""

    def tour_ids(table) -> list[int]:
        return ids_of(table, component_tour_greedy(graph.subgraph(table.vertices)))

    return tour_ids


def local_optimum(
    table, tour: list[int], max_rounds: int = 10_000, budget: Budget | None = None
) -> tuple[list[int], int]:
    """``local_search._local_optimum`` answered by :func:`improve_tour`:
    ``(improved tour of edge ids, jumps removed)``."""
    pairs = table.pairs(tour)
    better = improve_tour(pairs, max_rounds, budget)
    return ids_of(table, better), tour_cost(pairs) - tour_cost(better)
