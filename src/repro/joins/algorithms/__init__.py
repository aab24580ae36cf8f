"""Join algorithm implementations.

Every algorithm has the same contract: take the input relations (and a
predicate or band width where applicable), return the list of matching
``(left TupleRef, right TupleRef)`` pairs *in emission order*, each exactly
once.  The emission order is the interesting part — through
:mod:`repro.joins.trace` it becomes a pebbling scheme whose cost locates
the algorithm inside the paper's model (e.g. sort-merge pebbles equijoins
perfectly, index nested loops does not).
"""

from repro.joins.algorithms.nested_loops import block_nested_loops
from repro.joins.algorithms.hash_join import hash_join
from repro.joins.algorithms.sort_merge import sort_merge_join
from repro.joins.algorithms.index_nested_loops import index_nested_loops
from repro.joins.algorithms.spatial import plane_sweep_join, pbsm_join, rtree_join
from repro.joins.algorithms.set_joins import (
    inverted_index_join,
    signature_nested_loops,
)
from repro.joins.algorithms.interval_join import interval_merge_join
from repro.joins.algorithms.band_join import band_merge_join

__all__ = [
    "band_merge_join",
    "interval_merge_join",
    "block_nested_loops",
    "hash_join",
    "sort_merge_join",
    "index_nested_loops",
    "plane_sweep_join",
    "rtree_join",
    "pbsm_join",
    "signature_nested_loops",
    "inverted_index_join",
]
