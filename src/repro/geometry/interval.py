"""1D intervals: the temporal-join substrate.

Interval overlap joins ("find all meeting pairs whose times intersect")
are the one-dimensional slice of spatial overlap.  One might hope a single
dimension tames the pebbling worst case — it does not, and the reason is a
point worth internalizing about the model: **same-relation overlaps are
invisible to the join graph** (edges connect ``R``-tuples to ``S``-tuples
only).  The worst-case family ``G_n`` of Theorem 3.3 is therefore
realizable with plain intervals by *nesting*: the star centre ``c`` covers
the whole timeline, each arm ``v_j`` is a disjoint sub-interval of ``c``,
and each pendant ``w_j`` nests inside its ``v_j`` — ``w_j`` overlaps ``c``
too, but both live in ``R``, so no edge results
(:func:`realize_worst_case_intervals`, verified in tests).  Temporal joins
thus inherit the full ``1.25m − 1`` lower bound; dimensionality is no
refuge.  (An earlier draft of this module conjectured the opposite; the
randomized falsification test found the nesting counterexample — the test
is kept, inverted, as the witness.)
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any

from repro.errors import GeometryError


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` on the line."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise GeometryError(f"inverted interval bounds: {self}")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def overlaps(self, other: "Interval") -> bool:
        """Closed-interval overlap (endpoint contact counts)."""
        return self.lo <= other.hi and other.lo <= self.hi

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_point(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def translated(self, dx: float) -> "Interval":
        return Interval(self.lo + dx, self.hi + dx)


class IntervalIndex:
    """A static overlap index over ``(interval, payload)`` entries.

    Sorted by ``lo`` with a prefix maximum of ``hi``; a stabbing/overlap
    query binary-searches the first candidate and scans while ``lo`` stays
    within range, skipping ahead using the prefix maxima.  Simple and
    adequate for the workload sizes the library uses.
    """

    def __init__(self, entries: list[tuple[Interval, Any]]) -> None:
        self._entries = sorted(entries, key=lambda e: (e[0].lo, e[0].hi))
        self._los = [e[0].lo for e in self._entries]
        self._max_hi_prefix: list[float] = []
        running = float("-inf")
        for interval, _ in self._entries:
            running = max(running, interval.hi)
            self._max_hi_prefix.append(running)

    def __len__(self) -> int:
        return len(self._entries)

    def query(self, window: Interval) -> list[tuple[Interval, Any]]:
        """All entries overlapping ``window``."""
        # Entries with lo > window.hi can never overlap.
        stop = bisect.bisect_right(self._los, window.hi)
        out = []
        for index in range(stop):
            interval, payload = self._entries[index]
            if interval.hi >= window.lo:
                out.append((interval, payload))
        return out


def sweep_interval_pairs(
    left: list[tuple[Interval, Any]],
    right: list[tuple[Interval, Any]],
) -> list[tuple[Any, Any]]:
    """All overlapping ``(left_payload, right_payload)`` pairs by an
    endpoint sweep — the 1D analogue of
    :func:`repro.geometry.sweep.sweep_rectangle_pairs`, with the same
    emission-order contract for the trace bridge."""
    events: list[tuple[float, int, int, int]] = []
    for index, (interval, _) in enumerate(left):
        events.append((interval.lo, 0, 0, index))
        events.append((interval.hi, 1, 0, index))
    for index, (interval, _) in enumerate(right):
        events.append((interval.lo, 0, 1, index))
        events.append((interval.hi, 1, 1, index))
    # Natural tuple order: ties on (x, kind) fall to (side, index)
    # ascending, which is the order the events were appended in.
    events.sort()

    active_left: set[int] = set()
    active_right: set[int] = set()
    out: list[tuple[Any, Any]] = []
    for _x, kind, side, index in events:
        if kind == 1:
            (active_left if side == 0 else active_right).discard(index)
            continue
        if side == 0:
            active_left.add(index)
            payload = left[index][1]
            out += [(payload, right[j][1]) for j in active_right]
        else:
            active_right.add(index)
            payload = right[index][1]
            out += [(left[i][1], payload) for i in active_left]
    return out


def realize_worst_case_intervals(n: int) -> tuple[list, list]:
    """``G_n`` as a temporal join: the nesting construction.

    Returns ``(left_intervals, right_intervals)`` in the same vertex order
    as :func:`repro.core.families.worst_case_family` (``c, w_0, …`` on the
    left, ``v_0, …`` on the right): ``c`` spans the timeline, arm ``v_j``
    is the disjoint window ``[10j, 10j+5]``, pendant ``w_j`` nests inside
    it.  ``w_j`` overlaps ``c`` as well, but same-relation overlaps create
    no join edges — the observation that makes one-dimensional overlap
    joins attain the Theorem 3.3 worst case.
    """
    if n < 1:
        raise GeometryError("family defined for n >= 1")
    left = [Interval(0.0, 10.0 * n)]  # c
    right = []
    for j in range(n):
        right.append(Interval(10.0 * j, 10.0 * j + 5.0))  # v_j
        left.append(Interval(10.0 * j + 1.0, 10.0 * j + 2.0))  # w_j, nested
    return left, right
