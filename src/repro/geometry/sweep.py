"""Plane-sweep rectangle intersection.

The standard algorithm for the filter step of spatial joins: sweep a
vertical line across x; rectangles are *active* while the line is inside
their x-interval; on each rectangle's activation, report overlaps against
the active set of the other relation using y-interval tests.

Runs in ``O((n + k) log n)``-ish time with the interval list kept sorted
(``k`` = output size); exact asymptotics are not the point — the point is a
realistic sweep-based join whose *output order* feeds the pebbling trace
bridge.
"""

from __future__ import annotations

from typing import Any

from repro.geometry.primitives import Rectangle


def sweep_rectangle_pairs(
    left: list[tuple[Rectangle, Any]],
    right: list[tuple[Rectangle, Any]],
) -> list[tuple[Any, Any]]:
    """All overlapping ``(left_payload, right_payload)`` pairs by plane sweep.

    Output order is the sweep order (by activation x, ties by side), which
    is exactly the order a sweep-based join algorithm would emit result
    tuples — downstream, :mod:`repro.joins.trace` turns that order into a
    pebbling scheme.
    """
    events: list[tuple[float, int, int, int]] = []  # (x, kind, side, idx)
    # kind 0 = activation, processed before deactivations at same x to keep
    # closed-interval semantics; side 0 = left, 1 = right.
    for idx, (rect, _) in enumerate(left):
        events.append((rect.x_min, 0, 0, idx))
        events.append((rect.x_max, 1, 0, idx))
    for idx, (rect, _) in enumerate(right):
        events.append((rect.x_min, 0, 1, idx))
        events.append((rect.x_max, 1, 1, idx))
    # Natural tuple order: ties on (x, kind) fall to (side, idx)
    # ascending, which is the order the events were appended in.
    events.sort()

    # Active rectangles by index: (y_min, y_max, payload), in activation order.
    active_left: dict[int, tuple[float, float, Any]] = {}
    active_right: dict[int, tuple[float, float, Any]] = {}
    out: list[tuple[Any, Any]] = []
    for _x, kind, side, idx in events:
        if kind == 1:
            (active_left if side == 0 else active_right).pop(idx, None)
            continue
        rect, payload = (left if side == 0 else right)[idx]
        y0, y1 = rect.y_min, rect.y_max
        if side == 0:
            active_left[idx] = (y0, y1, payload)
            out += [
                (payload, q)
                for lo, hi, q in active_right.values()
                if y0 <= hi and lo <= y1
            ]
        else:
            active_right[idx] = (y0, y1, payload)
            out += [
                (p, payload)
                for lo, hi, p in active_left.values()
                if y0 <= hi and lo <= y1
            ]
    return out
