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
from itertools import chain
from operator import itemgetter
from typing import Any

from repro.errors import SchemeError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import Decomposition, betti_number
from repro.graphs.line_graph import EdgeTable, pick
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

    A scheme is held as an :class:`~repro.graphs.line_graph.EdgeTable`
    (labels plus int endpoints per entry) and the sequence of its entry
    ids, one per configuration.  π̂ and the jumps come from a walk over the
    int endpoints; ``configurations`` are built from the labels on first
    access.

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

    __slots__ = ("_table", "_ids", "_configs", "_tally")

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
        self._table = EdgeTable.intern(configs)
        self._ids: Sequence[int] = range(len(configs))
        self._configs: tuple[PebbleConfig, ...] | None = tuple(configs)
        self._tally: tuple[int, int] | None = None

    @classmethod
    def _of(
        cls,
        table: EdgeTable,
        ids: Sequence[int],
        configs: tuple[PebbleConfig, ...] | None = None,
    ) -> "PebblingScheme":
        """The scheme visiting entries ``ids`` of ``table``, unchecked:
        the caller vouches that every entry joins two distinct vertices
        and that equal labels share one id."""
        scheme = cls.__new__(cls)
        scheme._table = table
        scheme._ids = ids
        scheme._configs = configs
        scheme._tally = None
        return scheme

    @classmethod
    def from_edge_order(
        cls,
        graph: AnyGraph | Decomposition,
        edges: Sequence[tuple[Vertex, Vertex]] | Sequence[int],
    ) -> "PebblingScheme":
        """Build the scheme that visits ``edges`` in the given order.

        Every listed edge must be an edge of the graph; every edge of the
        graph must be listed exactly once.  Given a graph, ``edges`` are
        label pairs, interned once and checked against the graph.  Given
        the graph's :class:`~repro.graphs.components.Decomposition`, they
        are ids of its edge table (:attr:`Decomposition.table`), and the
        check is that the table has the graph's edge count and that the
        ids are a permutation of its ids.
        """
        if isinstance(graph, Decomposition):
            table = graph.table
            m = len(table)
            if m != graph.graph.num_edges:
                raise SchemeError(
                    f"the edge table has {m} edge(s), the graph "
                    f"{graph.graph.num_edges}"
                )
            # The ids 0 … m−1 in order are a permutation as they stand.
            if edges == range(m):
                return cls._of(table, range(m))
            ids = tuple(edges)
            if len(ids) != m or (
                ids and (min(ids) < 0 or max(ids) >= m or len(set(ids)) != m)
            ):
                _reject_ids(table, ids)
            return cls._of(table, ids)
        pairs = tuple(map(tuple, edges))
        if set(map(len, pairs)) - {2}:
            entry = next(pair for pair in pairs if len(pair) != 2)
            raise SchemeError(f"{entry!r} is not an edge of the graph")
        firsts = list(map(itemgetter(0), pairs))
        seconds = list(map(itemgetter(1), pairs))
        if not graph.has_edges(firsts, seconds):
            for u, v in pairs:
                if not graph.has_edge(u, v):
                    raise SchemeError(
                        f"({u!r}, {v!r}) is not an edge of the graph"
                    )
        # A pair listed twice, in either orientation, shrinks the set of
        # listed pairs or meets its own reversal there; only then is the
        # first repeat looked for.
        listed = set(pairs)
        if len(listed) < len(pairs) or not listed.isdisjoint(zip(seconds, firsts)):
            seen: set[tuple] = set()
            for u, v in pairs:
                if (u, v) in seen or (v, u) in seen:
                    raise SchemeError(f"edge ({u!r}, {v!r}) listed twice")
                seen.add((u, v))
        # Every listed pair is a distinct edge, so m of them cover them all.
        missing = graph.num_edges - len(pairs)
        if missing:
            raise SchemeError(f"{missing} edge(s) never pebbled")
        # Interned once, on the graph's vertex order.  Each pair is an
        # edge, so two distinct vertices: __init__'s checks would only
        # repeat that.
        vertices = list(graph)
        index = dict(zip(vertices, range(len(vertices))))
        table = EdgeTable(vertices, pick(index, firsts), pick(index, seconds))
        return cls._of(table, range(len(pairs)), pairs)

    # ------------------------------------------------------------------
    @property
    def configurations(self) -> tuple[PebbleConfig, ...]:
        """The configurations, in order (built on first access)."""
        if self._configs is None:
            self._configs = tuple(self._table.pairs(self._ids))
        return self._configs

    @property
    def table(self) -> EdgeTable:
        """The edge table the scheme's ids index."""
        return self._table

    @property
    def edge_ids(self) -> Sequence[int]:
        """The id of each configuration in :attr:`table`, in order."""
        return self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self.configurations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PebblingScheme):
            return NotImplemented
        return self.configurations == other.configurations

    def __reduce__(self):
        return (PebblingScheme._of, (self._table, self._ids))

    def __repr__(self) -> str:
        return f"PebblingScheme(k={len(self._ids)})"

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def deleted_edges(self, graph: AnyGraph) -> set[frozenset]:
        """The set of graph edges some configuration of the scheme deletes."""
        deleted: set[frozenset] = set()
        for a, b in self.configurations:
            if graph.has_edge(a, b):
                deleted.add(frozenset((a, b)))
        return deleted

    def validate(self, graph: AnyGraph) -> None:
        """Raise :class:`~repro.errors.SchemeError` unless the scheme is a
        valid pebbling of ``graph`` — i.e. references only existing vertices
        and deletes every edge."""
        has_vertex = graph.has_vertex
        for a, b in self.configurations:
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
        for a, b in self.configurations:
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
        """``(π̂, jumps)`` from one walk over the transitions on int
        endpoints, made at most once: the scheme is immutable, and
        solvers, polish and reassembly all ask for both."""
        if self._tally is None:
            tail, head, ids = self._table.tail, self._table.head, self._ids
            if ids == range(len(tail)):
                firsts, seconds = tail, head
            else:
                firsts, seconds = pick(tail, ids), pick(head, ids)
            # A transition moves the pebbles onto the current vertices not
            # already pebbled: 2 less the vertices it shares (a
            # configuration's two vertices differ).  A jump shares none.
            shared = jumps = 0
            for a, b, c, d in zip(firsts, seconds, firsts[1:], seconds[1:]):
                if c == a or c == b:
                    shared += 1
                    if d == a or d == b:
                        shared += 1
                elif d == a or d == b:
                    shared += 1
                else:
                    jumps += 1
            # The first configuration places both pebbles.
            self._tally = (2 * len(firsts) - shared, jumps)
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
        configs = self.configurations
        if not configs:
            return []
        first = configs[0]
        out: list[tuple[int, Vertex]] = [(0, first[0]), (1, first[1])]
        positions: list[Vertex] = [first[0], first[1]]
        for a, b in configs[1:]:
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
        return PebblingScheme.join((self, other))

    @classmethod
    def join(cls, schemes: Sequence["PebblingScheme"]) -> "PebblingScheme":
        """The schemes one after another, in one pass.

        On disjoint vertex sets (the components of one graph, Lemma 2.2)
        the edge tables are joined (:meth:`EdgeTable.join`) and each
        scheme's ids shifted by its table's offset; schemes that share a
        vertex are concatenated configuration by configuration instead,
        so equal labels keep one id either way.
        """
        tables = [scheme._table for scheme in schemes]
        labels = list(chain.from_iterable(table.vertices for table in tables))
        if len(set(labels)) < len(labels):
            return cls(chain.from_iterable(s.configurations for s in schemes))
        ids: list[int] = []
        base = 0
        for scheme, table in zip(schemes, tables):
            ids += map(base.__add__, scheme._ids)
            base += len(table)
        return cls._of(EdgeTable.join(tables), ids)


def _reject_ids(table: EdgeTable, ids: Sequence[int]) -> None:
    """Raise the :class:`~repro.errors.SchemeError` that says why ``ids``
    are not a permutation of ``table``'s edge ids."""
    m = len(table)
    seen: set[int] = set()
    for i in ids:
        if not 0 <= i < m:
            raise SchemeError(f"edge id {i!r} is not an edge of the graph")
        if i in seen:
            raise SchemeError(f"edge {table.pairs((i,))[0]!r} listed twice")
        seen.add(i)
    raise SchemeError(f"{m - len(seen)} edge(s) never pebbled")
