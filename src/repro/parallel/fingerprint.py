"""Canonical component fingerprints: the solve cache's keys.

A cached answer may only be reused when the new instance is *structurally
identical* to the one that produced it.  This module defines the
structural identity the cache relies on:

- vertices are put in a **canonical order** — left side then right side
  for bipartite graphs, each side sorted by ``repr`` (the same
  deterministic ordering trick :mod:`repro.core.solvers.held_karp` uses);
- edges become index pairs under that order, sorted — the **canonical
  edge list**;
- the fingerprint is the SHA-256 of a type tag, the side sizes, and the
  canonical edge list.

Two graphs with the same fingerprint have identical edge structure under
their respective canonical vertex orders, so a pebbling scheme recorded
as *index pairs* against one graph rehydrates into a valid scheme of the
other with identical cost, jumps, and status — labels differ, structure
does not.  This is what lets repeated components (the worst-case family
``G_n`` duplicated across a batch, say) be solved once and reused.

Vertex labels never enter the fingerprint, only their relative order, so
the cache hits across relabelings as long as ``repr`` ordering is
preserved — which every deterministic generator in this repo guarantees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from operator import eq

from repro.errors import SchemeError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.line_graph import EdgeTable, pick
from repro.graphs.simple import Graph, Vertex
from repro.core.scheme import PebblingScheme

AnyGraph = Graph | BipartiteGraph

IndexPair = tuple[int, int]


@dataclass(frozen=True)
class CanonicalForm:
    """A graph reduced to structure: ordered vertices + index edges.

    ``vertices`` is the canonical vertex order (the decode table for
    index-encoded schemes); ``left_size`` is the bipartite split point
    (0 for general graphs); ``edges`` is the sorted canonical edge list.
    """

    kind: str  # "bipartite" | "graph"
    vertices: tuple[Vertex, ...]
    left_size: int
    edges: tuple[IndexPair, ...]

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the structural content (hex digest), hashed once
        per form: the cache key, its events and the persistent tier all
        read it."""
        payload = "|".join(
            (
                self.kind,
                str(self.left_size),
                str(len(self.vertices)),
                ";".join(f"{u},{v}" for u, v in self.edges),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical_form(graph: AnyGraph) -> CanonicalForm:
    """The canonical form of ``graph`` (see the module docstring)."""
    if isinstance(graph, BipartiteGraph):
        left = sorted(graph.left, key=repr)
        right = sorted(graph.right, key=repr)
        vertices = tuple(left) + tuple(right)
        index = {v: i for i, v in enumerate(vertices)}
        edges = tuple(
            sorted((index[u], index[v]) for u in left for v in graph.neighbors(u))
        )
        return CanonicalForm(
            kind="bipartite",
            vertices=vertices,
            left_size=len(left),
            edges=edges,
        )
    vertices = tuple(sorted(graph.vertices, key=repr))
    index = {v: i for i, v in enumerate(vertices)}
    edges = tuple(
        sorted(tuple(sorted((index[u], index[v]))) for u, v in graph.edges())
    )
    return CanonicalForm(
        kind="graph", vertices=vertices, left_size=0, edges=edges
    )


def fingerprint(graph: AnyGraph) -> str:
    """Shorthand for ``canonical_form(graph).fingerprint``."""
    return canonical_form(graph).fingerprint


def encode_scheme(
    scheme: PebblingScheme, form: CanonicalForm
) -> tuple[IndexPair, ...]:
    """A scheme as index pairs under ``form``'s canonical vertex order.

    Each vertex of the scheme's edge table is looked up once, and the
    pairs are read off its ids (pair by pair when some table vertex is
    off the form).  Raises
    :class:`~repro.errors.SchemeError` when a configuration references a
    vertex outside the form (such schemes are not cacheable).
    """
    index = dict(zip(form.vertices, range(len(form.vertices))))
    table = scheme.table
    try:
        place = pick(index, table.vertices)
    except KeyError:
        # A table vertex no configuration uses (an isolated vertex of the
        # graph, say) may be off the form: encode pair by pair instead.
        encoded = []
        for a, b in scheme.configurations:
            if a not in index or b not in index:
                raise SchemeError(
                    f"configuration ({a!r}, {b!r}) references vertices "
                    "outside the canonical form; scheme is not cacheable"
                ) from None
            encoded.append((index[a], index[b]))
        return tuple(encoded)
    ids = scheme.edge_ids
    return tuple(
        zip(pick(place, pick(table.tail, ids)), pick(place, pick(table.head, ids)))
    )


def decode_scheme(
    encoded: tuple[IndexPair, ...] | list, form: CanonicalForm
) -> PebblingScheme:
    """Rehydrate an index-encoded scheme against ``form``'s vertex order:
    the form's vertices are the scheme's label table and the index pairs
    its entries, with no hashing.  Raises
    :class:`~repro.errors.SchemeError` on an entry that is not a pair, an
    index off the form, or a pair that puts both pebbles on one vertex."""
    vertices = form.vertices
    try:
        tail, head = (list(ends) for ends in zip(*encoded)) if encoded else ([], [])
    except ValueError:
        raise SchemeError("an encoded configuration is not a pair") from None
    if len(tail) != len(encoded):
        raise SchemeError("an encoded configuration is not a pair")
    if any(map(eq, tail, head)):
        raise SchemeError("an encoded configuration puts both pebbles on one vertex")
    try:
        if tail and min(min(tail), min(head)) < 0:
            raise IndexError
        configs = tuple(zip(pick(vertices, tail), pick(vertices, head)))
    except IndexError:
        raise SchemeError(
            "an encoded configuration is off the canonical form"
        ) from None
    table = EdgeTable(vertices, tail, head)
    return PebblingScheme._of(table, range(len(tail)), configs)
