"""Pebbling schemes and their costs (paper §2, Definitions 2.1 and 2.2).

The game: two pebbles live on vertices of the join graph.  When the pebbles
sit on the two endpoints of an edge, that edge is deleted.  A single move
relocates one pebble to any vertex (pebbles "teleport"; the model charges
for pebble *placements*, not for traversed distance).  A *pebbling scheme*
is a sequence of pebble configurations that deletes every edge.

Cost accounting reproduces the paper exactly:

- reaching the first configuration costs 2 (both pebbles are placed);
- moving between consecutive configurations costs the number of pebbles
  that must move — 1 if the configurations share a vertex, 2 otherwise.

With this accounting, a scheme whose consecutive configurations always share
a vertex over ``k`` configurations costs ``k + 1``, matching Def 2.1, and a
perfect matching with ``m`` edges costs ``2m``, matching Lemma 2.4.  The
*effective* cost subtracts the number of connected components β₀ (Def 2.2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter
from typing import Any

from repro.errors import SchemeError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import betti_number
from repro.graphs.simple import Graph, Vertex

AnyGraph = Graph | BipartiteGraph

PebbleConfig = tuple[Any, Any]
"""A configuration: the unordered pair of vertices holding the two pebbles."""


def config_transition_cost(previous: PebbleConfig, current: PebbleConfig) -> int:
    """Pebble moves needed to change ``previous`` into ``current``.

    Equal to the number of vertices of ``current`` not already pebbled, so 0
    for identical configurations, 1 when they share exactly one vertex, and
    2 when disjoint.
    """
    prev_set = set(previous)
    return sum(1 for v in current if v not in prev_set)


def configs_share_vertex(a: PebbleConfig, b: PebbleConfig) -> bool:
    """True iff two configurations have a pebbled vertex in common."""
    return bool(set(a) & set(b))


class PebblingScheme:
    """An immutable pebbling scheme: a sequence of configurations.

    The canonical form produced by every solver is an *edge order*: each
    configuration is an edge of the graph, each edge appears exactly once.
    The class also accepts free-form configuration sequences (e.g. transit
    configurations not lying on edges), which the validity check handles.

    Example
    -------
    >>> from repro.graphs.generators import path_graph
    >>> g = path_graph(3)
    >>> scheme = PebblingScheme.from_edge_order(g, g.edges())
    >>> scheme.cost(g)
    4
    >>> scheme.effective_cost(g)
    3
    """

    def __init__(self, configurations: Iterable[PebbleConfig]) -> None:
        configs = []
        for config in configurations:
            if len(config) != 2:
                raise SchemeError(f"configuration {config!r} is not a pair")
            a, b = config
            if a == b:
                raise SchemeError(
                    f"configuration {config!r} puts both pebbles on one vertex"
                )
            configs.append((a, b))
        self._configs: tuple[PebbleConfig, ...] = tuple(configs)
        self._tally: tuple[int, int] | None = None

    @classmethod
    def from_edge_order(
        cls, graph: AnyGraph, edges: Sequence[tuple[Vertex, Vertex]]
    ) -> "PebblingScheme":
        """Build the scheme that visits ``edges`` in the given order.

        Every listed pair must be an edge of ``graph``; every edge of
        ``graph`` must be listed exactly once.
        """
        pairs = tuple(map(tuple, edges))
        has_edge = graph.has_edge
        for u, v in pairs:
            if not has_edge(u, v):
                raise SchemeError(f"({u!r}, {v!r}) is not an edge of the graph")
        # A pair listed twice, in either orientation, shrinks the set of
        # listed pairs or meets its own reversal there; only then is the
        # first repeat looked for.
        listed = set(pairs)
        if len(listed) < len(pairs) or not listed.isdisjoint(
            zip(map(itemgetter(1), pairs), map(itemgetter(0), pairs))
        ):
            seen: set[tuple] = set()
            for u, v in pairs:
                if (u, v) in seen or (v, u) in seen:
                    raise SchemeError(f"edge ({u!r}, {v!r}) listed twice")
                seen.add((u, v))
        # Every listed pair is a distinct edge, so m of them cover them all.
        missing = graph.num_edges - len(pairs)
        if missing:
            raise SchemeError(f"{missing} edge(s) never pebbled")
        # Each pair is an edge, so two distinct vertices: __init__'s checks
        # and copy would only repeat that.
        scheme = cls.__new__(cls)
        scheme._configs = pairs
        scheme._tally = None
        return scheme

    # ------------------------------------------------------------------
    @property
    def configurations(self) -> tuple[PebbleConfig, ...]:
        return self._configs

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self):
        return iter(self._configs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PebblingScheme):
            return NotImplemented
        return self._configs == other._configs

    def __repr__(self) -> str:
        return f"PebblingScheme(k={len(self._configs)})"

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def deleted_edges(self, graph: AnyGraph) -> set[frozenset]:
        """The set of graph edges some configuration of the scheme deletes."""
        deleted: set[frozenset] = set()
        for a, b in self._configs:
            if graph.has_edge(a, b):
                deleted.add(frozenset((a, b)))
        return deleted

    def validate(self, graph: AnyGraph) -> None:
        """Raise :class:`~repro.errors.SchemeError` unless the scheme is a
        valid pebbling of ``graph`` — i.e. references only existing vertices
        and deletes every edge."""
        has_vertex = (
            graph.has_vertex if isinstance(graph, BipartiteGraph) else graph.has_vertex
        )
        for a, b in self._configs:
            if not has_vertex(a) or not has_vertex(b):
                raise SchemeError(f"configuration ({a!r}, {b!r}) is off the graph")
        # Every deleted edge is a graph edge, so counting them is enough.
        deleted = self.deleted_edges(graph)
        if len(deleted) != graph.num_edges:
            missing = {frozenset(e) for e in graph.edges()} - deleted
            raise SchemeError(
                f"scheme leaves {len(missing)} edge(s) undeleted, e.g. "
                f"{sorted(map(sorted, missing))[:3]}"
            )

    def is_valid(self, graph: AnyGraph) -> bool:
        """Boolean variant of :meth:`validate`."""
        try:
            self.validate(graph)
        except SchemeError:
            return False
        return True

    def is_edge_order(self, graph: AnyGraph) -> bool:
        """True iff every configuration is an edge and no edge repeats
        (the canonical solver output form)."""
        seen: set[frozenset] = set()
        for a, b in self._configs:
            if not graph.has_edge(a, b):
                return False
            key = frozenset((a, b))
            if key in seen:
                return False
            seen.add(key)
        return True

    # ------------------------------------------------------------------
    # costs (Definitions 2.1 and 2.2)
    # ------------------------------------------------------------------
    def _counts(self) -> tuple[int, int]:
        """``(π̂, jumps)`` from one walk over the transitions, made at most
        once: the scheme is immutable, and solvers, polish and reassembly
        all ask for both."""
        if self._tally is None:
            configs = self._configs
            cost = 2 if configs else 0  # initial placement of both pebbles
            jumps = 0
            for previous, (a, b) in zip(configs, configs[1:]):
                # config_transition_cost, inlined: current vertices not
                # already pebbled.
                moves = (a not in previous) + (b not in previous)
                cost += moves
                jumps += moves == 2
            self._tally = (cost, jumps)
        return self._tally

    def cost(self, graph: AnyGraph | None = None) -> int:
        """``π̂(P)``: the total number of pebble moves.

        The graph argument is accepted for symmetry with
        :meth:`effective_cost` but is not needed: cost is a property of the
        configuration sequence alone.
        """
        return self._counts()[0]

    def effective_cost(self, graph: AnyGraph) -> int:
        """``π(P) = π̂(P) − β₀(G)`` (Def 2.2)."""
        return self.cost() - betti_number(graph)

    def jumps(self) -> int:
        """The number of 2-move transitions (the TSP "jumps" of §2.2)."""
        return self._counts()[1]

    def moves(self) -> list[tuple[int, Vertex]]:
        """Expand the scheme into individual pebble moves.

        Each move is ``(pebble_index, destination)`` with pebbles indexed 0
        and 1; replaying the moves through :class:`repro.core.game.PebbleGame`
        reproduces the configuration sequence.  The expansion greedily keeps
        a pebble in place whenever consecutive configurations share a vertex,
        which is exactly the optimal per-transition behaviour.
        """
        if not self._configs:
            return []
        first = self._configs[0]
        out: list[tuple[int, Vertex]] = [(0, first[0]), (1, first[1])]
        positions: list[Vertex] = [first[0], first[1]]
        for a, b in self._configs[1:]:
            targets = [a, b]
            # Keep any pebble already on a target vertex.
            for pebble in (0, 1):
                if positions[pebble] in targets:
                    targets.remove(positions[pebble])
            for pebble in (0, 1):
                if not targets:
                    break
                if positions[pebble] not in (a, b):
                    destination = targets.pop(0)
                    out.append((pebble, destination))
                    positions[pebble] = destination
        return out

    def concat(self, other: "PebblingScheme") -> "PebblingScheme":
        """Concatenate two schemes (used by the additivity lemma 2.2)."""
        return PebblingScheme(self._configs + other._configs)
