"""Cheap column statistics and join selectivity estimation.

The planner's inputs: per-column summaries collected in one pass, and a
sampling-based selectivity estimate for arbitrary predicates.  Everything
is deterministic given the seed, so plans are reproducible.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any

from repro.joins.predicates import JoinPredicate
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.relations.domains import Domain
from repro.relations.relation import Relation


@dataclass(frozen=True)
class ColumnStats:
    """A one-pass summary of a single-column relation."""

    count: int
    distinct: int | None  # None when values are unhashable
    domain: Domain

    @property
    def duplication_factor(self) -> float:
        """Mean tuples per distinct value (1.0 = key column)."""
        if not self.count or not self.distinct:
            return 1.0
        return self.count / self.distinct


def collect_stats(relation: Relation) -> ColumnStats:
    """Collect :class:`ColumnStats` for a relation."""
    try:
        distinct: int | None = len(set(relation.values))
    except TypeError:
        distinct = None
    return ColumnStats(
        count=len(relation), distinct=distinct, domain=relation.domain
    )


def derive_seed(
    left: Relation,
    right: Relation,
    predicate: JoinPredicate,
    seed: int = 0,
) -> int:
    """A per-call sampling seed derived from the *content identity* of the
    estimate: relation names and sizes, the predicate class, and the base
    seed.

    Two properties matter for reproducible plans:

    - **cross-process stability** — the derivation uses CRC-32, never
      Python's randomized ``hash()``, so ``--jobs 1`` and ``--jobs N``
      worker processes draw identical samples and produce identical
      estimates (and therefore identical plans);
    - **per-query independence** — distinct queries sharing a base seed
      no longer reuse one sample-index sequence, so correlated sampling
      artifacts cannot line up across a workload.
    """
    key = (
        f"{left.name}|{len(left)}|{right.name}|{len(right)}|"
        f"{predicate.name}|{seed}"
    )
    return zlib.crc32(key.encode("utf-8"))


def estimate_selectivity(
    left: Relation,
    right: Relation,
    predicate: JoinPredicate,
    sample_size: int = 64,
    seed: int = 0,
) -> float:
    """Estimate the fraction of the cross product satisfying ``predicate``
    by evaluating it on a random sample of tuple pairs.

    Returns 0.0 for empty inputs.  The estimate drives the planner's
    expected-output-size computation; it is *not* used for correctness.

    When the whole cross product fits inside the sample budget
    (``n_left * n_right <= sample_size``) it is enumerated exactly: on
    tiny inputs with-replacement sampling both biased the estimate (pairs
    drawn more than once carry extra weight) and made it look
    nondeterministic across sample sizes, for more work than the exact
    count.  The chosen mode is surfaced through the
    ``planner.selectivity.{exact,sampled}`` metrics counters.

    The sampled path seeds a private generator via :func:`derive_seed`
    (``seed`` is the base seed of that derivation), so estimates are a
    pure function of the inputs — identical in every process.
    """
    n_left, n_right = len(left), len(right)
    if n_left == 0 or n_right == 0:
        return 0.0
    left_values = left.values
    right_values = right.values
    cross = n_left * n_right
    if cross <= sample_size:
        hits = sum(
            1 for a in left_values for b in right_values if predicate.matches(a, b)
        )
        if obs_recorder.ON:
            obs_metrics.inc("planner.selectivity.exact")
            obs_metrics.inc("planner.selectivity.pairs_evaluated", cross)
        return hits / cross
    rng = random.Random(derive_seed(left, right, predicate, seed))
    pairs = sample_size
    hits = 0
    for _ in range(pairs):
        a = left_values[rng.randrange(n_left)]
        b = right_values[rng.randrange(n_right)]
        if predicate.matches(a, b):
            hits += 1
    if obs_recorder.ON:
        obs_metrics.inc("planner.selectivity.sampled")
        obs_metrics.inc("planner.selectivity.pairs_evaluated", pairs)
    return hits / pairs


def estimate_output_size(
    left: Relation,
    right: Relation,
    predicate: JoinPredicate,
    sample_size: int = 64,
    seed: int = 0,
) -> float:
    """Expected ``m``: selectivity × cross-product size.

    For equijoins a closed-form refinement is used when both sides hash:
    ``|R|·|S| / max(d_R, d_S)`` (the textbook containment assumption),
    which is far more stable than sampling at low selectivities.
    """
    from repro.joins.predicates import Equality

    if isinstance(predicate, Equality):
        left_stats = collect_stats(left)
        right_stats = collect_stats(right)
        if left_stats.distinct and right_stats.distinct:
            return (
                len(left) * len(right) / max(left_stats.distinct, right_stats.distinct)
            )
    selectivity = estimate_selectivity(left, right, predicate, sample_size, seed)
    return selectivity * len(left) * len(right)
