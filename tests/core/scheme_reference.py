"""The label-based scheme check and cost walk, kept as a test oracle.

Before schemes were held as edge ids of an interned edge table,
``PebblingScheme.from_edge_order`` checked every listed pair with the
graph's ``has_edge``, found repeats through a set of label pairs and its
reversal, and ``_counts`` walked the transitions on the labels.  This
module keeps that path: the id-based scheme must accept exactly the
orders it accepts, reject the rest, and give the same configurations, π̂
and jumps.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import SchemeError


def edge_order(graph, edges) -> tuple[tuple, ...]:
    """The configurations of the scheme visiting ``edges`` in order;
    raises :class:`SchemeError` as the label-based check did."""
    pairs = tuple(map(tuple, edges))
    has_edge = graph.has_edge
    for u, v in pairs:
        if not has_edge(u, v):
            raise SchemeError(f"({u!r}, {v!r}) is not an edge of the graph")
    listed = set(pairs)
    if len(listed) < len(pairs) or not listed.isdisjoint(
        zip(map(itemgetter(1), pairs), map(itemgetter(0), pairs))
    ):
        seen: set[tuple] = set()
        for u, v in pairs:
            if (u, v) in seen or (v, u) in seen:
                raise SchemeError(f"edge ({u!r}, {v!r}) listed twice")
            seen.add((u, v))
    missing = graph.num_edges - len(pairs)
    if missing:
        raise SchemeError(f"{missing} edge(s) never pebbled")
    return pairs


def counts(configs) -> tuple[int, int]:
    """``(π̂, jumps)`` from a walk over the labels."""
    cost = 2 if configs else 0
    jumps = 0
    for previous, (a, b) in zip(configs, configs[1:]):
        moves = (a not in previous) + (b not in previous)
        cost += moves
        jumps += moves == 2
    return cost, jumps
