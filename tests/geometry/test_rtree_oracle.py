"""The tuple R-tree against the object R-tree it replaced.

Hypothesis draws rectangle sets that stress the orders the STR bulk
load and the synchronized descent can disagree on: many rectangles with
equal centers (sort ties), rectangles on an integer grid that touch
along edges and corners (closed-interval overlap), and repeated
rectangles (duplicate rows).  The trees must have the same shape, and
``query`` and ``join`` must return the same entries in the same order.
"""

from hypothesis import given, settings, strategies as st

from repro.geometry.primitives import Rectangle
from repro.geometry.rtree import RTree
from tests.geometry import rtree_reference as reference

COMMON = settings(max_examples=120, deadline=None)

# Integer-grid rectangles: edges and corners of neighbours often coincide.
grid = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 3),
    st.integers(0, 3),
)

# A handful of centers shared by rectangles of different sizes.
centered = st.builds(
    lambda c, hw, hh: Rectangle(c[0] - hw, c[1] - hh, c[0] + hw, c[1] + hh),
    st.sampled_from([(0.0, 0.0), (2.5, 2.5), (2.5, -1.0), (-0.0, 4.0)]),
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),
)

floats = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(0, 5, allow_nan=False),
    st.floats(0, 5, allow_nan=False),
)

shapes = st.one_of(grid, centered, floats)


@st.composite
def entries(draw, payload_offset: int = 0):
    pool = draw(st.lists(shapes, min_size=1, max_size=12))
    # Drawing from a small pool repeats rectangles: duplicate rows.
    rects = draw(st.lists(st.sampled_from(pool), max_size=40))
    return [(rect, payload_offset + i) for i, rect in enumerate(rects)]


def _shape(node) -> tuple:
    """A node as nested ``(bounds, children, payloads)`` tuples."""
    bounds, children, leaf_entries = node
    return (bounds, tuple(map(_shape, children)), tuple(p for _, _, p in leaf_entries))


def _reference_shape(node) -> tuple:
    b = node.bounds
    return (
        (b.x_min, b.y_min, b.x_max, b.y_max),
        tuple(map(_reference_shape, node.children)),
        tuple(p for _, p in node.entries),
    )


fanouts = st.integers(2, 9)


@COMMON
@given(entries(), fanouts)
def test_same_tree(items, fanout):
    tree, oracle = RTree(items, fanout), reference.RTree(items, fanout)
    assert tree.height() == oracle.height()
    if items:
        assert _shape(tree.root) == _reference_shape(oracle.root)


@COMMON
@given(entries(), shapes, fanouts)
def test_same_query_in_the_same_order(items, window, fanout):
    got = RTree(items, fanout).query(window)
    assert got == reference.RTree(items, fanout).query(window)


@COMMON
@given(entries(), entries(payload_offset=1000), fanouts, fanouts)
def test_same_join_in_the_same_order(left, right, left_fanout, right_fanout):
    got = RTree(left, left_fanout).join(RTree(right, right_fanout))
    want = reference.RTree(left, left_fanout).join(reference.RTree(right, right_fanout))
    assert got == want


def test_touching_rectangles_join():
    left = [(Rectangle(0, 0, 1, 1), "a"), (Rectangle(3, 3, 4, 4), "b")]
    right = [(Rectangle(1, 1, 2, 2), "x"), (Rectangle(1, 0, 3, 3), "y")]
    got = RTree(left, 2).join(RTree(right, 2))
    assert got == reference.RTree(left, 2).join(reference.RTree(right, 2))
    assert sorted(got) == [("a", "x"), ("a", "y"), ("b", "y")]
