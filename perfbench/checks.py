"""Correctness checks applied to every op, outside the timed region.

They restate the paper's claims from the raw edge lists and configuration
sequences, without the library's own validators, so a defect shared by a
solver and its validator still shows:

- a scheme visits every join-graph edge exactly once and nothing else;
- ``m <= pi <= sum_c floor(1.25 m_c)`` (Theorem 3.1, per component by
  Lemma 2.2) for solver output, ``m <= pi <= 2m - 1`` (Lemma 2.3) for the
  emission order of an arbitrary join algorithm;
- ``pi = m`` on equijoin graphs (Theorem 3.2);
- the reported ``pi`` equals the one recomputed here.

Each function returns a list of problems; empty means the check passed.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

Edge = tuple[Hashable, Hashable]


def component_edge_counts(edges: Iterable[Edge]) -> list[int]:
    """Edge count of every connected component that has an edge
    (union-find over the edge list)."""
    parent: dict = {}

    def find(v):
        root = v
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    edge_list = list(edges)
    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    counts: dict = {}
    for u, _v in edge_list:
        root = find(u)
        counts[root] = counts.get(root, 0) + 1
    return list(counts.values())


def is_union_of_bicliques(edges: Sequence[Edge]) -> bool:
    """True iff every component is complete bipartite (``edges`` are
    oriented left-to-right)."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = find(("L", u)), find(("R", v))
        if ru != rv:
            parent[ru] = rv
    sides: dict = {}
    for u, v in edges:
        entry = sides.setdefault(find(("L", u)), [set(), set(), 0])
        entry[0].add(u)
        entry[1].add(v)
        entry[2] += 1
    return all(len(l) * len(r) == m for l, r, m in sides.values())


def raw_cost(configurations: Sequence[Edge]) -> int:
    """``pi_hat``: two placements, then one move per vertex of each
    configuration that the previous one did not already hold."""
    if not configurations:
        return 0
    total = 2
    for (a, b), (c, d) in zip(configurations, configurations[1:]):
        total += (c not in (a, b)) + (d not in (a, b))
    return total


def check_order(
    edges: Iterable[Edge],
    configurations: Sequence[Edge],
    reported_pi: int | None,
    bound: str,
) -> tuple[list[str], int, int]:
    """Check an edge-order scheme against its graph.

    ``bound`` is ``"approx"`` (Theorem 3.1), ``"perfect"`` (Theorem 3.2)
    or ``"any"`` (Lemma 2.3).  Returns ``(problems, m, pi)``.
    """
    problems: list[str] = []
    expected = {frozenset(e) for e in edges}
    seen: set[frozenset] = set()
    for config in configurations:
        key = frozenset(config)
        if key not in expected:
            problems.append(f"configuration {tuple(config)!r} is not a join-graph edge")
            break
        if key in seen:
            problems.append(f"edge {tuple(config)!r} pebbled twice")
            break
        seen.add(key)
    if not problems and seen != expected:
        problems.append(f"{len(expected - seen)} edge(s) never pebbled")
    m = len(expected)
    counts = component_edge_counts(tuple(e) for e in expected)
    pi = raw_cost(configurations) - len(counts)
    if reported_pi is not None and reported_pi != pi:
        problems.append(f"reported pi {reported_pi} != recomputed {pi}")
    if m and pi < m:
        problems.append(f"pi {pi} below m {m}")
    if bound == "approx":
        upper = sum(5 * mc // 4 for mc in counts)
        if pi > upper:
            problems.append(f"pi {pi} above sum floor(1.25 m_c) = {upper}")
    elif bound == "perfect":
        if pi != m:
            problems.append(f"equijoin pi {pi} != m {m}")
    elif m and pi > 2 * m - 1:
        problems.append(f"pi {pi} above 2m - 1 = {2 * m - 1}")
    return problems, m, pi
