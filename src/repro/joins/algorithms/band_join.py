"""Band join by a sorted-window merge.

Sort both sides by ``(value, ordinal)`` and slide one window over the
right side as the left side advances: left tuple ``r`` joins exactly the
right tuples ``[lo, hi)`` with ``|r − s| ≤ width``, and both window ends
only move forward, so the merge runs in O(n log n + m).

The emission order snakes.  Let ``last`` be the right index the previous
window ended on.  If ``last`` lies in the new window, the left tuple
emits ``last, last−1, …, lo`` and then ``last+1, …, hi−1``, so its first
pair shares the right tuple with the previous pair; otherwise it emits
``lo … hi−1`` ascending.  With ``width = 0`` the windows are the key
groups and the order is exactly sort-merge's boustrophedon (Lemma 3.2),
so the band merge pebbles an equijoin perfectly (``π = m``).

The windows need ``|r − s| ≤ width`` to be monotone in ``s`` along the
sorted right side.  It is when every value and the width is an int
(exact arithmetic), or a float or an int of magnitude at most 2**52 (every
difference is then the rounded exact one).  An int beyond that meeting a
float breaks it: ``2**53 + 3 − 0`` is exact, ``2**53 + 3 − 0.5`` rounds up
to ``2**53 + 4``, ``2**53 + 3 − 1`` is exact again.  Such inputs, and
numeric types other than int and float, are joined by testing every pair
with :meth:`Band.matches` instead, each left tuple emitting its matches in
sorted order.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from repro.joins.predicates import Band
from repro.relations.relation import Relation, TupleRef


def band_merge_join(
    left: Relation, right: Relation, width: float
) -> list[tuple[TupleRef, TupleRef]]:
    """All pairs with ``|left − right| ≤ width``, in snake window order."""
    Band(width).check_domains(left.domain, right.domain)
    # Stable sorts of ordinal-ordered items: ties keep ordinal order.
    left_sorted = sorted(left.items(), key=itemgetter(1))
    right_sorted = sorted(right.items(), key=itemgetter(1))
    right_refs = [ref for ref, _ in right_sorted]
    right_values = [value for _, value in right_sorted]
    if not _monotone(chain(map(itemgetter(1), left_sorted), right_values), width):
        matches = Band(width).matches
        return [
            (l_ref, r_ref)
            for l_ref, value in left_sorted
            for r_ref, other in right_sorted
            if matches(value, other)
        ]
    n = len(right_values)
    out: list[tuple[TupleRef, TupleRef]] = []
    lo = hi = 0
    last = -1
    for l_ref, value in left_sorted:
        # The window compares the *difference* against the width, exactly
        # as Band.matches computes |a - b| <= width; the algebraically
        # equal forms `right < value - width` / `right <= value + width`
        # round differently near the boundary and disagree with the
        # predicate.
        while lo < n and value - right_values[lo] > width:
            lo += 1
        if hi < lo:
            hi = lo
        while hi < n and right_values[hi] - value <= width:
            hi += 1
        if lo == hi:
            continue
        if lo <= last < hi:
            out += [(l_ref, right_refs[k]) for k in range(last, lo - 1, -1)]
            out += [(l_ref, right_refs[k]) for k in range(last + 1, hi)]
            last = hi - 1 if last + 1 < hi else lo
        else:
            out += [(l_ref, r_ref) for r_ref in right_refs[lo:hi]]
            last = hi - 1
    return out


# Ints up to this magnitude differ by at most 2**53, which a float holds.
_EXACT_INT = 2**52


def _monotone(values, width) -> bool:
    """True when the band test is monotone along sorted ``values`` (see
    the module docstring)."""
    values = [*values, width]
    kinds = set(map(type, values))
    if kinds <= {int}:
        return True
    if not kinds <= {int, float}:
        return False
    return all(
        -_EXACT_INT <= v <= _EXACT_INT for v in values if type(v) is int
    )
