"""Reference implementations kept as test oracles.

These are the straightforward quadratic forms of the local search and of
the Theorem 3.1 path peeling: every 2-opt / or-opt pass rescans all
``O(m²)`` moves and compares edges by their endpoint sets, and the peel
walks parent pointers for each candidate's depth.  The library's
jump-local, interned versions must return exactly what these return.
"""

from __future__ import annotations

from repro.core.solvers.dfs_approx import (
    _chain_down,
    _eliminate_twins,
    _subtree_as_path,
)
from repro.core.tsp import tour_cost
from repro.graphs.simple import Graph
from repro.graphs.traversal import RootedTree
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


def peel_chunks(tree: RootedTree, line: Graph) -> list[list]:
    """Theorem 3.1 peeling with a parent-pointer walk per candidate depth."""
    chunks: list[list] = []
    while len(tree) >= 4:
        _eliminate_twins(tree, line)
        if len(tree) < 4:
            break
        sizes = tree.subtree_sizes()
        candidates = [n for n in tree.nodes() if sizes[n] >= 4]
        target = max(candidates, key=lambda n: (tree.depth(n), repr(n)))
        chunks.append(_subtree_as_path(tree, target))
        tree.remove_subtree(target)
    if len(tree) > 0:
        root = tree.root
        children = tree.children(root)
        if len(children) <= 1:
            chunks.append(_chain_down(tree, root))
        else:
            chunks.append([children[0], root, children[1]])
    return chunks
