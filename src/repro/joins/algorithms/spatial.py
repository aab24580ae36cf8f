"""Spatial overlap join algorithms.

Three classic strategies over rectangle (or polygon, via bounding-box
filter + exact verify) columns:

- :func:`plane_sweep_join` — sort by x, sweep (Günther-style sweep filter);
- :func:`rtree_join` — STR-bulk-load both sides, synchronized descent;
- :func:`pbsm_join` — Partition Based Spatial-Merge (Patel–DeWitt, the
  paper's [13]): overlay a uniform grid, replicate objects into every cell
  they touch, join within cells, de-duplicate.

The replication+dedup of PBSM is one of the "unsatisfying" traits of
spatial join algorithms the paper's introduction points at ("requiring
either replication of data or repeated processing of data") — visible here
as the ``replication_factor`` the function can report.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.errors import PredicateError
from repro.geometry.primitives import Polygon, Rectangle
from repro.geometry.rtree import RTree
from repro.geometry.sweep import sweep_rectangle_pairs
from repro.relations.domains import Domain
from repro.relations.relation import Relation, TupleRef


def _boxes(relation: Relation) -> list[tuple[Rectangle, TupleRef]]:
    """Bounding boxes + refs for an interval, rectangle, or polygon column.

    Intervals lift to unit-height rectangles, which makes every rectangle
    algorithm (and its box test, which is then exact) apply to temporal
    joins unchanged.
    """
    if relation.domain == Domain.RECTANGLE:
        return [(value, ref) for ref, value in relation.items()]
    if relation.domain == Domain.POLYGON:
        return [(value.bounding_box(), ref) for ref, value in relation.items()]
    if relation.domain == Domain.INTERVAL:
        return [
            (Rectangle(value.lo, 0.0, value.hi, 1.0), ref)
            for ref, value in relation.items()
        ]
    raise PredicateError(
        f"spatial join needs interval, rectangle or polygon columns, "
        f"got {relation.domain.value}"
    )


def _verifier(
    left: Relation, right: Relation
) -> Callable[[TupleRef, TupleRef], bool] | None:
    """The exact predicate check of a join's box-test candidates, or None
    when the box test already *is* the predicate (interval and rectangle
    columns); decided once per join, not per candidate."""
    exact_domains = (Domain.RECTANGLE, Domain.INTERVAL)
    if left.domain in exact_domains and right.domain in exact_domains:
        return None
    from repro.geometry.intersect import overlap

    return lambda r_ref, s_ref: overlap(left.value(r_ref), right.value(s_ref))


def _verified(
    left: Relation, right: Relation, candidates: list[tuple[TupleRef, TupleRef]]
) -> list[tuple[TupleRef, TupleRef]]:
    verify = _verifier(left, right)
    if verify is None:
        return candidates
    return [pair for pair in candidates if verify(*pair)]


def plane_sweep_join(
    left: Relation, right: Relation
) -> list[tuple[TupleRef, TupleRef]]:
    """Overlap join by plane sweep, in sweep emission order."""
    return _verified(left, right, sweep_rectangle_pairs(_boxes(left), _boxes(right)))


def rtree_join(
    left: Relation, right: Relation, fanout: int = 8
) -> list[tuple[TupleRef, TupleRef]]:
    """Overlap join by synchronized R-tree descent."""
    left_tree = RTree(_boxes(left), fanout=fanout)
    right_tree = RTree(_boxes(right), fanout=fanout)
    return _verified(left, right, left_tree.join(right_tree))


def pbsm_join(
    left: Relation,
    right: Relation,
    grid: int = 4,
    report_stats: bool = False,
) -> list[tuple[TupleRef, TupleRef]] | tuple[list[tuple[TupleRef, TupleRef]], dict]:
    """Partition Based Spatial-Merge join.

    Overlays a ``grid × grid`` uniform partition of the data extent,
    replicates each object into every overlapping cell, joins cell-by-cell
    with nested loops, and suppresses duplicate results (an object pair
    overlapping several shared cells would otherwise be reported multiple
    times).  With ``report_stats=True`` also returns
    ``{"replication_factor": …, "duplicates_suppressed": …}``.
    """
    if grid < 1:
        raise PredicateError("grid must be positive")
    left_boxes = _boxes(left)
    right_boxes = _boxes(right)
    if not left_boxes or not right_boxes:
        return ([], {"replication_factor": 0.0, "duplicates_suppressed": 0}) if report_stats else []
    extent = left_boxes[0][0]
    for box, _ in left_boxes + right_boxes:
        extent = extent.union_bounds(box)
    width = max(extent.width, 1e-9) / grid
    height = max(extent.height, 1e-9) / grid

    def cells_of(box: Rectangle) -> list[tuple[int, int]]:
        cx0 = int((box.x_min - extent.x_min) / width)
        cx1 = int((box.x_max - extent.x_min) / width)
        cy0 = int((box.y_min - extent.y_min) / height)
        cy1 = int((box.y_max - extent.y_min) / height)
        return [
            (min(cx, grid - 1), min(cy, grid - 1))
            for cx in range(cx0, cx1 + 1)
            for cy in range(cy0, cy1 + 1)
            if cx < grid + 1 and cy < grid + 1
        ]

    partitions: dict[tuple[int, int], tuple[list, list]] = {}
    replicas = 0
    for box, ref in left_boxes:
        for cell in cells_of(box):
            partitions.setdefault(cell, ([], []))[0].append((box, ref))
            replicas += 1
    for box, ref in right_boxes:
        for cell in cells_of(box):
            partitions.setdefault(cell, ([], []))[1].append((box, ref))
            replicas += 1

    verify = _verifier(left, right)
    out: list[tuple[TupleRef, TupleRef]] = []
    seen: set[tuple[TupleRef, TupleRef]] = set()
    duplicates = 0
    for cell in sorted(partitions):
        cell_left, cell_right = partitions[cell]
        for l_box, r_ref in cell_left:
            for r_box, s_ref in cell_right:
                if not l_box.intersects(r_box):
                    continue
                pair = (r_ref, s_ref)
                if pair in seen:
                    duplicates += 1
                    continue
                # Mark the pair as seen either way so a verified-negative
                # polygon pair is not re-verified in another shared cell.
                seen.add(pair)
                if verify is None or verify(r_ref, s_ref):
                    out.append(pair)
    if report_stats:
        stats = {
            "replication_factor": replicas / (len(left_boxes) + len(right_boxes)),
            "duplicates_suppressed": duplicates,
        }
        return out, stats
    return out
