"""Bipartite-graph generators for instances, workloads, and tests.

Vertex naming convention: left vertices are ``"u{i}"`` and right vertices are
``"v{j}"``; generators that combine blocks tag names with the block index.
Everything that is randomized takes a :class:`random.Random` instance (or a
seed), never touching the global RNG, so every instance is reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from repro.errors import GraphError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import disjoint_union_many
from repro.graphs.simple import Graph


def _rng(seed_or_rng: int | random.Random | None) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def complete_bipartite(k: int, l: int) -> BipartiteGraph:
    """``K_{k,l}``: the join graph of one equijoin key group (Lemma 3.2)."""
    if k < 0 or l < 0:
        raise GraphError("side sizes must be non-negative")
    g = BipartiteGraph(
        left=[f"u{i}" for i in range(k)],
        right=[f"v{j}" for j in range(l)],
    )
    for i in range(k):
        for j in range(l):
            g.add_edge(f"u{i}", f"v{j}")
    return g


def matching_graph(m: int) -> BipartiteGraph:
    """A perfect matching with ``m`` edges (Lemma 2.4: ``π̂ = 2m``)."""
    g = BipartiteGraph()
    for i in range(m):
        g.add_edge(f"u{i}", f"v{i}")
    return g


def path_graph(m: int) -> BipartiteGraph:
    """A path with ``m`` edges (``m + 1`` vertices), alternating sides.

    Paths pebble perfectly: their line graphs are paths, hence Hamiltonian.
    """
    if m < 1:
        raise GraphError("path needs at least one edge")
    g = BipartiteGraph()
    names = [f"u{i // 2}" if i % 2 == 0 else f"v{i // 2}" for i in range(m + 1)]
    for a, b in zip(names, names[1:]):
        g.add_edge(*((a, b) if a.startswith("u") else (b, a)))
    return g


def cycle_graph(m: int) -> BipartiteGraph:
    """An even cycle with ``m`` edges (``m`` must be even and ≥ 4)."""
    if m < 4 or m % 2:
        raise GraphError("bipartite cycles need an even number ≥ 4 of edges")
    g = BipartiteGraph()
    half = m // 2
    for i in range(half):
        g.add_edge(f"u{i}", f"v{i}")
        g.add_edge(f"u{(i + 1) % half}", f"v{i}")
    return g


def star_graph(n: int) -> BipartiteGraph:
    """``K_{1,n}``: one left hub joined to ``n`` right leaves."""
    if n < 1:
        raise GraphError("star needs at least one leaf")
    g = BipartiteGraph(left=["u0"], right=[f"v{j}" for j in range(n)])
    for j in range(n):
        g.add_edge("u0", f"v{j}")
    return g


def double_star(a: int, b: int) -> BipartiteGraph:
    """Two stars with adjacent hubs: hub ``u0`` with ``a`` leaves, hub ``v0``
    with ``b`` leaves, plus the bridge edge ``(u0, v0)``.

    Its line graph is two cliques sharing a vertex — always traceable, so
    double stars pebble perfectly despite not being complete bipartite.
    """
    if a < 0 or b < 0:
        raise GraphError("leaf counts must be non-negative")
    g = BipartiteGraph(left=["u0"], right=["v0"])
    g.add_edge("u0", "v0")
    for j in range(a):
        g.add_edge("u0", f"v{j + 1}")
    for i in range(b):
        g.add_edge(f"u{i + 1}", "v0")
    return g


def union_of_bicliques(sizes: Sequence[tuple[int, int]]) -> BipartiteGraph:
    """A disjoint union of complete bipartite blocks.

    This is exactly the shape of an equijoin join graph (§3.1): one
    ``K_{k,l}`` per distinct join-key value with ``k`` matching tuples in
    ``R`` and ``l`` in ``S``.
    """
    if not sizes:
        raise GraphError("need at least one block")
    return disjoint_union_many(complete_bipartite(k, l) for k, l in sizes)


def random_bipartite_gnm(
    n_left: int,
    n_right: int,
    m: int,
    seed: int | random.Random | None = None,
) -> BipartiteGraph:
    """A uniform random bipartite graph with exactly ``m`` distinct edges."""
    if m > n_left * n_right:
        raise GraphError(f"cannot place {m} edges in a {n_left}x{n_right} grid")
    rng = _rng(seed)
    g = BipartiteGraph(
        left=[f"u{i}" for i in range(n_left)],
        right=[f"v{j}" for j in range(n_right)],
    )
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        pair = (rng.randrange(n_left), rng.randrange(n_right))
        if pair not in chosen:
            chosen.add(pair)
            g.add_edge(f"u{pair[0]}", f"v{pair[1]}")
    return g


def random_bipartite_gnp(
    n_left: int,
    n_right: int,
    p: float,
    seed: int | random.Random | None = None,
) -> BipartiteGraph:
    """A random bipartite graph where each of the ``n_left · n_right``
    possible edges is present independently with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must lie in [0, 1]")
    rng = _rng(seed)
    g = BipartiteGraph(
        left=[f"u{i}" for i in range(n_left)],
        right=[f"v{j}" for j in range(n_right)],
    )
    for i in range(n_left):
        for j in range(n_right):
            if rng.random() < p:
                g.add_edge(f"u{i}", f"v{j}")
    return g


def random_connected_bipartite(
    n_left: int,
    n_right: int,
    extra_edges: int = 0,
    seed: int | random.Random | None = None,
) -> BipartiteGraph:
    """A connected random bipartite graph.

    Builds a random spanning tree over the two sides (guaranteeing
    connectivity) and then adds ``extra_edges`` random chords.  Useful for
    property tests of the connected-graph bounds (Cor 2.1, Thm 3.1).
    """
    if n_left < 1 or n_right < 1:
        raise GraphError("both sides need at least one vertex")
    rng = _rng(seed)
    # One label object per vertex, shared by every edge end that names it.
    lefts = [f"u{i}" for i in range(n_left)]
    rights = [f"v{j}" for j in range(n_right)]
    g = BipartiteGraph(left=lefts, right=rights)
    # Random alternating spanning tree: attach each new vertex to a random
    # already-attached vertex on the opposite side.
    attached_left = [0]
    attached_right: list[int] = []
    pending = [("u", i) for i in range(1, n_left)] + [("v", j) for j in range(n_right)]
    rng.shuffle(pending)
    # Make sure the first right vertex can attach: force one right vertex first.
    pending.sort(key=lambda t: 0 if (t[0] == "v" and not attached_right) else 1)
    for side, idx in pending:
        if side == "u":
            j = rng.choice(attached_right)
            g.add_edge(lefts[idx], rights[j])
            attached_left.append(idx)
        else:
            i = rng.choice(attached_left)
            g.add_edge(lefts[i], rights[idx])
            attached_right.append(idx)
    capacity = n_left * n_right - g.num_edges
    for _ in range(min(extra_edges, capacity) * 4):
        if extra_edges <= 0:
            break
        i, j = rng.randrange(n_left), rng.randrange(n_right)
        if not g.has_edge(lefts[i], rights[j]):
            g.add_edge(lefts[i], rights[j])
            extra_edges -= 1
    return g


def spider_graph(n: int) -> BipartiteGraph:
    """The ``G_n`` shape of Fig 1(a): a star ``K_{1,n}`` with one pendant
    edge attached to each leaf; ``m = 2n`` edges.

    The canonical worst-case family lives in :mod:`repro.core.families`
    (with cost formulas); this generator provides just the graph.
    """
    if n < 1:
        raise GraphError("spider needs n >= 1")
    g = BipartiteGraph(left=["c"], right=[f"v{j}" for j in range(n)])
    for j in range(n):
        g.add_edge("c", f"v{j}")
        g.add_edge(f"w{j}", f"v{j}")  # pendant left vertex
    return g


def incidence_graph(graph: Graph) -> BipartiteGraph:
    """The vertex–edge incidence bipartite graph of a general graph.

    This is the map ``f`` of Theorem 4.4: nodes of ``graph`` on the left,
    edges of ``graph`` on the right, with an incidence edge whenever the
    vertex is an endpoint of the edge.  Edge vertices are labelled with the
    canonical edge tuples of ``graph``.
    """
    b = BipartiteGraph(left=graph.vertices, right=graph.edges())
    for edge in graph.edges():
        u, v = edge
        b.add_edge(u, edge)
        b.add_edge(v, edge)
    return b


def grid_graph(rows: int, cols: int) -> BipartiteGraph:
    """A ``rows × cols`` grid, a natural bipartite stress instance."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    g = BipartiteGraph()
    for r in range(rows):
        for c in range(cols):
            name = f"u{r}_{c}" if (r + c) % 2 == 0 else f"v{r}_{c}"
            if (r + c) % 2 == 0:
                g.add_left_vertex(name)
            else:
                g.add_right_vertex(name)
    for r in range(rows):
        for c in range(cols):
            here = f"{'u' if (r + c) % 2 == 0 else 'v'}{r}_{c}"
            if c + 1 < cols:
                right = f"{'u' if (r + c + 1) % 2 == 0 else 'v'}{r}_{c + 1}"
                g.add_edge(*((here, right) if here.startswith("u") else (right, here)))
            if r + 1 < rows:
                below = f"{'u' if (r + 1 + c) % 2 == 0 else 'v'}{r + 1}_{c}"
                g.add_edge(*((here, below) if here.startswith("u") else (below, here)))
    return g


def random_tsp12_graph(
    n: int,
    max_degree: int,
    seed: int | random.Random | None = None,
    edge_factor: float = 1.3,
) -> Graph:
    """A random general graph with bounded degree, i.e. the weight-1 edge set
    of a TSP-k(1,2) instance (paper §4).

    ``edge_factor · n`` edge insertions are attempted; insertions that would
    exceed ``max_degree`` at an endpoint are skipped.  The result may be
    disconnected — TSP(1,2) instances need not be connected.
    """
    if max_degree < 1:
        raise GraphError("max_degree must be positive")
    rng = _rng(seed)
    g = Graph(vertices=range(n))
    attempts = int(edge_factor * n) + n
    for _ in range(attempts):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        if g.degree(u) >= max_degree or g.degree(v) >= max_degree:
            continue
        g.add_edge(u, v)
    return g


def all_small_bipartite_graphs(
    n_left: int, n_right: int, min_edges: int = 1
) -> Iterable[BipartiteGraph]:
    """Every bipartite graph on fixed labelled sides (for exhaustive tests).

    There are ``2^(n_left · n_right)`` of them, so keep the sides tiny
    (``n_left · n_right ≤ 12`` or so).
    """
    cells = [(i, j) for i in range(n_left) for j in range(n_right)]
    total = len(cells)
    for mask in range(1 << total):
        if mask.bit_count() < min_edges:
            continue
        g = BipartiteGraph(
            left=[f"u{i}" for i in range(n_left)],
            right=[f"v{j}" for j in range(n_right)],
        )
        for bit, (i, j) in enumerate(cells):
            if mask >> bit & 1:
                g.add_edge(f"u{i}", f"v{j}")
        yield g
