"""Local search on TSP(1,2) tours: 2-opt and or-opt for pebbling schemes.

Polishing pass applied on top of any constructive solver.  Operates on the
edge-tour representation; with weights in {1, 2} every improving move
removes at least one jump, so the number of improvement steps is bounded by
the initial jump count.

Moves implemented, each pass applying the first improving move in
``(i, j)`` / ``(i, k)`` order:

- **2-opt** (segment reversal): replace steps ``(t[i−1], t[i])`` and
  ``(t[j], t[j+1])`` by ``(t[i−1], t[j])`` and ``(t[i], t[j+1])``.  Path
  variant: prefix/suffix reversals touch only one boundary.
- **or-opt** (node relocation): move a single tour node between two
  adjacent tour positions elsewhere.

Two things keep a pass cheap without changing which move it takes:

- *Interned endpoints.*  A tour is searched as pairs of small ints from
  its component's :class:`~repro.graphs.line_graph.EdgeTable` (equal
  vertices have equal ints), so the weight test is four int comparisons
  instead of two hashed vertex sets, and the table lists each vertex's
  incident edges, so a node's neighbours are two list lookups.
- *Moves found from the jumps outward* (the neighbour lists of Johnson &
  McGeoch's 2-opt).  A move replaces one to three tour steps by as many
  new ones, each of weight ≥ 1, so an improving move must break a jump
  and create a weight-1 step; the node at the far end of that step is a
  neighbour of a node next to the jump.  Each pass finds the ``J`` jumps
  and every tour position in ``O(m)``, then scores only the moves built
  from the jump ends' neighbours: ``O(m + J·Δ)`` per pass, ``Δ`` the
  largest line-graph degree.  The move applied is the first improving one
  in ``(i, j)`` / ``(i, k)`` order, the one a scan of every move takes.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

# component_vertex_sets stays imported: perfbench/tracer.py wraps it here.
from repro.graphs.components import component_vertex_sets
from repro.graphs.line_graph import EdgeTable, pick
from repro.core.tsp import edges_share_endpoint, tour_cost
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

Adjacency = Callable[[Hashable, Hashable], bool]
Neighbours = Callable[[Hashable], Iterable[Hashable]]


def _jumps(tour: list, adjacent: Adjacency) -> list[int]:
    """Positions ``p`` whose step ``(tour[p], tour[p+1])`` is a jump."""
    return [
        p for p in range(len(tour) - 1) if not adjacent(tour[p], tour[p + 1])
    ]


def two_opt_pass(
    tour: list, adjacent: Adjacency, neighbours: Neighbours
) -> bool:
    """One 2-opt sweep: apply the first improving ``(i, j)``; True if any.

    ``adjacent(a, b)`` is the weight-1 test and ``neighbours(a)`` lists the
    tour nodes adjacent to ``a`` (and may list ``a``).  Reversing
    ``tour[i..j]`` replaces steps ``(i-1, i)`` and ``(j, j+1)`` by
    ``(t[i-1], t[j])`` and ``(t[i], t[j+1])``.  An improving move breaks a
    jump and makes a weight-1 step: either ``(t[i-1], t[j])`` with ``i-1``
    a jump, or ``(t[i], t[j+1])`` with ``j`` a jump (when both old steps
    are jumps and one new step has weight 1, that step names its jump).
    So for each jump ``p`` the candidates are

    - ``(p+1, j)`` for ``t[j]`` next to ``t[p]``: it improves iff
      ``j = n-1``, ``j`` is a jump, or ``t[p+1] ~ t[j+1]``;
    - ``(i, p)`` for ``t[i]`` next to ``t[p+1]``: it improves iff
      ``i = 0``, ``i-1`` is a jump, or ``t[i-1] ~ t[p]``;

    and the least improving one is applied.
    """
    jumps = _jumps(tour, adjacent)
    if not jumps:
        return False
    last = len(tour) - 1
    position = {node: index for index, node in enumerate(tour)}
    is_jump = bytearray(last + 1)
    for p in jumps:
        is_jump[p] = 1
    best_i = best_j = last + 1
    for p in jumps:
        i = p + 1
        if i <= best_i:
            head = tour[i]
            for x in neighbours(tour[p]):
                j = position[x]
                if (
                    i < j
                    and (i < best_i or j < best_j)
                    and (j == last or is_jump[j] or adjacent(head, tour[j + 1]))
                ):
                    best_i, best_j = i, j
        tail = tour[p]
        for y in neighbours(tour[p + 1]):
            i = position[y]
            if (
                i < p
                and (i < best_i or i == best_i and p < best_j)
                and (i == 0 or is_jump[i - 1] or adjacent(tour[i - 1], tail))
            ):
                best_i, best_j = i, p
    if best_i > last:
        return False
    tour[best_i : best_j + 1] = reversed(tour[best_i : best_j + 1])
    return True


def or_opt_pass(
    tour: list, adjacent: Adjacency, neighbours: Neighbours
) -> bool:
    """One single-node relocation sweep: apply the first improving
    ``(i, k)``; True if any.

    Moving ``tour[i]`` to slot ``k`` of the tour without it (between
    ``rest[k-1]`` and ``rest[k]``) gains when the steps it breaks outweigh
    the ones it makes.  Some broken step must be a jump: one around ``i``,
    or the slot itself, whose two ends are then both neighbours of the
    node.  Unless the removal gains 3, an improving slot also has a
    neighbour of the node on one side, so the slots come from the
    neighbours' positions; with a gain of 3, slot 0 (cost ≤ 2) is first.
    """
    jumps = _jumps(tour, adjacent)
    if not jumps:
        return False
    n = len(tour)
    position = {node: index for index, node in enumerate(tour)}

    def w(a, b) -> int:
        return 1 if adjacent(a, b) else 2

    starts = set()
    for p in jumps:
        starts.add(p)
        starts.add(p + 1)
        right = tour[p + 1]
        for x in neighbours(tour[p]):
            if adjacent(x, right):
                starts.add(position[x])
    for i in sorted(starts):
        node = tour[i]
        removal_gain = 0
        if i > 0:
            removal_gain += w(tour[i - 1], node)
        if i < n - 1:
            removal_gain += w(node, tour[i + 1])
        if 0 < i < n - 1:
            removal_gain -= w(tour[i - 1], tour[i + 1])
        if removal_gain <= 0:
            continue
        if removal_gain == 3:
            slots = [0]
        else:
            # rest[r] is tour[r] before i and tour[r+1] after it, so the
            # neighbour at tour position q is rest[r], between slots r, r+1.
            slot_set = set()
            for x in neighbours(node):
                q = position[x]
                r = q if q < i else q - 1
                slot_set.add(r)
                slot_set.add(r + 1)
            slots = sorted(slot_set)
        for k in slots:
            if k == i:
                continue  # reinserting in place
            insertion_cost = 0
            if k > 0:
                previous = tour[k - 1] if k - 1 < i else tour[k]
                insertion_cost += w(previous, node)
            if k < n - 1:
                following = tour[k] if k < i else tour[k + 1]
                insertion_cost += w(node, following)
            if 0 < k < n - 1:
                insertion_cost -= w(previous, following)
            if insertion_cost < removal_gain:
                del tour[i]
                tour.insert(k, node)
                return True
    return False


def _local_optimum(
    table: EdgeTable,
    tour: list[int],
    max_rounds: int = 10_000,
    budget: Budget | None = None,
) -> tuple[list[int], int]:
    """The search on a tour of ``table``'s edge ids: ``(improved tour,
    jumps removed)``."""
    ends = table.ends()
    # Distinct edges of one table are distinct int pairs.
    working = list(pick(ends, tour))
    edge_of = dict(zip(working, tour))
    at = [pick(ends, incident) for incident in table.incidence()]

    def neighbours(edge):
        return at[edge[0]] + at[edge[1]]

    initial_cost = tour_cost(working)
    for _ in range(max_rounds):
        if budget is not None and budget.poll(max(1, len(working))):
            break  # anytime cut between passes; tour stays valid
        if two_opt_pass(working, edges_share_endpoint, neighbours):
            continue
        if or_opt_pass(working, edges_share_endpoint, neighbours):
            continue
        break
    # A tour costs its length plus its jumps, and the length is fixed.
    removed = initial_cost - tour_cost(working)
    assert removed >= 0
    return [edge_of[pair] for pair in working], removed


@dataclass(frozen=True)
class PolishResult:
    """Polished per-component tours and the jumps polish removed."""

    tours: list[list[int]]
    improvement: int  # jumps removed from the input tours


def polish_scheme(
    tables: Sequence[EdgeTable],
    tours: list[list[int]],
    budget: Budget | None = None,
) -> PolishResult:
    """Improve each component's tour with local search.

    ``tours`` are the per-component tours a constructive solver returns,
    in component order, each of ids of the component's edge table in
    ``tables`` (:attr:`~repro.graphs.components.Decomposition.tables`).
    Each is polished on its own (the steps between components are
    unavoidable jumps), so the polished tours, placed one after another,
    pebble the same graph.
    """
    polished: list[list[int]] = []
    improvement = 0
    with obs_trace.span("solver.polish"):
        for table, tour in zip(tables, tours):
            better, removed = _local_optimum(table, tour, budget=budget)
            polished.append(better)
            improvement += removed
    if obs_recorder.ON:
        obs_metrics.inc("solver.polish.passes")
        obs_metrics.inc("solver.polish.jumps_removed", improvement)
    return PolishResult(tours=polished, improvement=improvement)
